"""The Gaussian covariance kernel, its Gram matrices, and bandwidth selection.

The kernel is fixed to K(x) = exp(-x^2/2).  The bootstrap needs the Gram
matrix {K((s - j)/k_T)} to be positive semi-definite at every bandwidth
k_T, which holds exactly when K has a nonnegative Fourier transform; the
Gaussian kernel does, and it is the only kernel the package offers.

Only this module tells a fixed bandwidth from the automatic rule: callers
read ``_correlogram_lags(T, rule)`` autocovariance lags (0 for a fixed rule)
and pass them to ``_bandwidth_from_correlogram``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .series import _values, autocov_vector


def kernel_eval(x):
    """Evaluate the Gaussian kernel exp(-x^2/2) at ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x)
    return float(out) if np.ndim(out) == 0 else out


def kernel_window(k_T: float, cutoff: float = 1e-12, limit: int | None = None) -> int:
    """Largest integer offset m with K(m / k_T) >= cutoff, capped at ``limit``.

    For the Gaussian kernel this is floor(k_T * sqrt(-2 ln cutoff)).
    ``limit`` is typically T - 1.
    """
    if k_T <= 0:
        raise ValueError(f"bandwidth must be positive, got {k_T}")
    if cutoff <= 0:
        if limit is None:
            raise ValueError("cutoff 0 requires an explicit limit")
        return limit
    m = math.floor(k_T * math.sqrt(-2.0 * math.log(min(cutoff, 1.0))))
    return m if limit is None else min(m, limit)


def kernel_gram(T: int, k_T: float) -> np.ndarray:
    """Symmetric Toeplitz matrix with entries K((s - j) / k_T), s, j = 1..T."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if k_T <= 0:
        raise ValueError(f"bandwidth must be positive, got {k_T}")
    first_row = kernel_eval(np.arange(T) / k_T)
    return scipy.linalg.toeplitz(np.atleast_1d(first_row))


@dataclass(frozen=True)
class BandwidthRule:
    """Either a fixed bandwidth or the automatic flat-top threshold rule.

    The fixed ``k_T`` and the threshold constant ``c`` must be positive and
    finite; anything else raises ``ValueError``.
    """

    variant: str
    k_T: Optional[float] = None
    c: float = 2.0

    def __post_init__(self):
        if self.variant == "fixed":
            if self.k_T is None or not (math.isfinite(self.k_T) and self.k_T > 0):
                raise ValueError(f"fixed bandwidth must be positive and finite, got {self.k_T}")
        elif self.variant == "auto":
            if not (math.isfinite(self.c) and self.c > 0):
                raise ValueError(f"threshold constant must be positive and finite, got {self.c}")
        else:
            raise ValueError(f"unknown bandwidth variant {self.variant!r}")

    @classmethod
    def fixed(cls, k_T: float) -> "BandwidthRule":
        return cls(variant="fixed", k_T=float(k_T))

    @classmethod
    def auto(cls, c: float = 2.0) -> "BandwidthRule":
        return cls(variant="auto", c=float(c))


def select_bandwidth(x, rule: BandwidthRule) -> float:
    """Resolve a bandwidth rule on a concrete series.

    Fixed rules echo their value.  The automatic rule looks at the
    correlogram: with L = floor(sqrt(T)) and K_n = max(5, ceil(sqrt(log10 T)))
    it finds the smallest q such that the next K_n sample autocorrelations
    |rho_hat_{q+1}|, ..., |rho_hat_{q+K_n}| all fall below
    c * sqrt(log10(T) / T), and returns k_T = max(1, 2q).  If no such q
    exists within 0..L the conservative cap max(1, 2L) is returned.
    """
    v = _values(x)
    return _bandwidth_from_correlogram(autocov_vector(v, _correlogram_lags(v.size, rule)), v.size, rule)


def _correlogram_lags(T: int, rule: BandwidthRule) -> int:
    """Highest lag the rule reads: 0 for a fixed rule, else L + K_n capped at T - 1."""
    if rule.variant == "fixed":
        return 0
    return min(math.isqrt(T) + _scan_width(T), T - 1)


def _scan_width(T: int) -> int:
    """K_n: how many consecutive small autocorrelations end the scan."""
    return max(5, math.ceil(math.sqrt(math.log10(T))))


def _bandwidth_from_correlogram(sigma: np.ndarray, T: int, rule: BandwidthRule) -> float:
    """The rule on autocovariances at lags 0..>=_correlogram_lags(T, rule)."""
    if rule.variant == "fixed":
        return float(rule.k_T)
    if T < 20:
        raise ValueError(
            f"automatic bandwidth selection needs T >= 20 (got {T}); use BandwidthRule.fixed instead"
        )
    L = math.isqrt(T)
    K_n = _scan_width(T)
    threshold = rule.c * math.sqrt(math.log10(T) / T)
    sigma = sigma[: _correlogram_lags(T, rule) + 1]
    if sigma[0] == 0.0:
        return 1.0
    rho = np.abs(sigma / sigma[0])
    for q in range(L + 1):
        upper = q + K_n
        if upper >= rho.size:
            break
        if np.all(rho[q + 1 : upper + 1] < threshold):
            return max(1.0, 2.0 * q)
    return max(1.0, 2.0 * L)
