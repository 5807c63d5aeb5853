"""Deterministic random number streams.

Every stochastic routine in the package draws from an ``RngStream``, a value
type naming one member of a family of statistically independent generators.
The pair ``(seed, stream_index)`` fully determines the output sequence, so
results are reproducible regardless of execution order or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_UINT64 = 2**64


@dataclass(frozen=True)
class RngStream:
    """One member of a family of independent random streams.

    Streams with the same seed but different ``stream_index`` are
    statistically independent (numpy ``SeedSequence`` spawn keys).
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < _MAX_UINT64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= self.stream_index < _MAX_UINT64:
            raise ValueError(f"stream_index must be a 64-bit unsigned integer, got {self.stream_index}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(seq)


def derive_seed(seed: int, key: tuple[int, ...]) -> int:
    """Derive an independent 64-bit seed from a master seed and an integer key.

    Used by the Monte Carlo harness to give every (scenario, repetition,
    purpose) triple its own stream without collision bookkeeping.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])
