"""Simulation models with three interchangeable white-noise innovation families.

All three innovation kinds share the same second-order structure
(mean 0, unit variance, zero cross-correlation) but differ in their higher
order behavior, which is exactly what drives the differences in sampling
variance that the inference machinery must track:

    independent         e_i
    product_of_normals  e_i * e_{i-1}          (dependent, stationary)
    non_stationary      eps_{2k} = e_k, eps_{2k+1} = e_{k+1} * e_k
                        (the latent stream advances every other step, so a
                        product shares one latent with each neighbour)

with e_i i.i.d. standard normal.  The non-stationary kind has fourth
moments that alternate by position (E eps^4 is 3 at even, 9 at odd
absolute positions); parity is anchored to the absolute position counted
from the start of the latent stream, so the pattern survives burn-in
truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg
import scipy.signal

from .rng import RngStream
from .series import _values


class InnovationKind(str, Enum):
    INDEPENDENT = "independent"
    PRODUCT_OF_NORMALS = "product_of_normals"
    NON_STATIONARY = "non_stationary"


_INNOVATION_ALIASES = {
    "independent": InnovationKind.INDEPENDENT,
    "iid": InnovationKind.INDEPENDENT,
    "product": InnovationKind.PRODUCT_OF_NORMALS,
    "product_of_normals": InnovationKind.PRODUCT_OF_NORMALS,
    "nonstat": InnovationKind.NON_STATIONARY,
    "non_stationary": InnovationKind.NON_STATIONARY,
}

AR_COEFFICIENTS = {
    "ar2": (0.5, 0.2),
    "ar4": (0.3, 0.2, 0.2, 0.1),
}
MA3_THETA = (0.6, 0.4, 0.1)

MODELS = ("ar1", "ar2", "ar4", "ma3", "nlar2")

# Long-run mean of the raw sin/cos recursion, subtracted so the emitted
# series is (approximately) zero-mean as the estimators assume.  Calibrated
# once from a 1e5-length run; regenerate with scripts/calibrate_nlar2_mean.py.
NLAR2_LONG_RUN_MEAN = 0.5593278113979375


def parse_innovation(name) -> InnovationKind:
    """Map a user-facing innovation name (or alias) to its kind."""
    if isinstance(name, InnovationKind):
        return name
    try:
        return _INNOVATION_ALIASES[str(name).lower()]
    except KeyError:
        valid = ", ".join(sorted(set(_INNOVATION_ALIASES)))
        raise ValueError(f"unknown innovation kind {name!r} (valid: {valid})") from None


@dataclass(frozen=True)
class DgpSpec:
    """One fully specified simulation: model, innovations, length, stream."""

    model: str
    innovation: InnovationKind
    T: int
    rho: float = 0.9
    burn_in: int = 1000
    seed: int = 0
    stream_index: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r} (valid: {', '.join(MODELS)})")
        object.__setattr__(self, "innovation", parse_innovation(self.innovation))
        if self.T < 10:
            raise ValueError(f"T must be >= 10, got {self.T}")
        if self.model == "ar1" and not abs(self.rho) < 1:
            raise ValueError(f"ar1 requires |rho| < 1, got {self.rho}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")


def gen_innovations(kind, n: int, stream: RngStream) -> np.ndarray:
    """Generate ``n`` white-noise innovations of the given kind.

    Positions are counted 1..n from the start of the latent stream.  The
    product kind multiplies each latent with its predecessor; the
    non-stationary kind emits eps_{2k} = e_k and eps_{2k+1} = e_{k+1} e_k,
    alternating plain normals with products that straddle them.
    """
    kind = parse_innovation(kind)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    g = stream.generator()
    if kind is InnovationKind.INDEPENDENT:
        return g.standard_normal(n)
    if kind is InnovationKind.PRODUCT_OF_NORMALS:
        e = g.standard_normal(n + 1)
        return e[1:] * e[:-1]
    e = g.standard_normal(n // 2 + 2)
    out = np.empty(n)
    # 0-based position t: odd t is absolute position s = t+1 = 2k with
    # k = (t+1)//2; even t is s = 2k+1 with k = t//2.
    k_even_s = np.arange(1, n // 2 + 1)
    out[1::2] = e[k_even_s[: out[1::2].size]]
    k_odd_s = np.arange(0, (n + 1) // 2)
    out[0::2] = e[k_odd_s + 1] * e[k_odd_s]
    return out


def _ar_filter(coefficients, eps: np.ndarray) -> np.ndarray:
    denom = np.concatenate(([1.0], -np.asarray(coefficients, dtype=float)))
    return scipy.signal.lfilter([1.0], denom, eps)


def nlar2_path(eps: np.ndarray) -> np.ndarray:
    """Raw x_t = sin(x_{t-1}) + cos(x_{t-2}) + eps_t recursion from zeros.

    ``eps`` is one path, or a stack of paths with time along axis 1.  A
    stack of several rows runs the recursion across rows with numpy
    ufuncs; a single path runs a scalar ``math`` loop.  Each row gets the
    same bits either way.
    """
    if eps.ndim == 2 and eps.shape[0] > 1:
        out = np.empty(eps.shape)
        x1 = np.zeros(eps.shape[0])
        x2 = np.zeros(eps.shape[0])
        for t in range(eps.shape[1]):
            x = np.sin(x1) + np.cos(x2) + eps[:, t]
            out[:, t] = x
            x2 = x1
            x1 = x
        return out
    flat = eps.ravel()
    out = np.empty(flat.size)
    x1 = 0.0
    x2 = 0.0
    sin = math.sin
    cos = math.cos
    for t in range(flat.size):
        x = sin(x1) + cos(x2) + flat[t]
        out[t] = x
        x2 = x1
        x1 = x
    return out.reshape(eps.shape)


def _recursion(spec: DgpSpec, eps: np.ndarray) -> np.ndarray:
    """Run the model's recursion from zeros along the last axis of ``eps``."""
    if spec.model == "ar1":
        return _ar_filter((spec.rho,), eps)
    if spec.model in AR_COEFFICIENTS:
        return _ar_filter(AR_COEFFICIENTS[spec.model], eps)
    if spec.model == "ma3":
        return scipy.signal.lfilter([1.0, *MA3_THETA], [1.0], eps)
    return nlar2_path(eps) - NLAR2_LONG_RUN_MEAN


def gen_series(spec: DgpSpec) -> np.ndarray:
    """Simulate the model, discard the burn-in, and return the last T values.

    The values are copied out of the simulation buffer.  Recursions start from zeros.  The nonlinear model subtracts the fixed
    calibration constant ``NLAR2_LONG_RUN_MEAN`` instead of the sample mean,
    so the output stays a pure function of the spec.
    """
    n = spec.burn_in + spec.T
    eps = gen_innovations(spec.innovation, n, RngStream(spec.seed, spec.stream_index))
    return _values(_recursion(spec, eps)[spec.burn_in :].copy())


def gen_series_block(spec: DgpSpec, seeds) -> np.ndarray:
    """Simulate one series per seed, as the rows of a (len(seeds), T) array.

    Row i holds the bits of ``gen_series(replace(spec, seed=seeds[i]))``:
    each row draws its innovations from its own stream, and the recursion
    runs once over the block (``lfilter`` along axis 1, or ``nlar2_path``
    across rows).  Raises ``ValueError`` naming the first non-finite value.
    """
    n = spec.burn_in + spec.T
    eps = np.empty((len(seeds), n))
    for i, seed in enumerate(seeds):
        eps[i] = gen_innovations(spec.innovation, n, RngStream(seed, spec.stream_index))
    values = np.ascontiguousarray(_recursion(spec, eps)[:, spec.burn_in :])
    finite = np.isfinite(values)
    if not finite.all():
        row, pos = np.argwhere(~finite)[0]
        raise ValueError(f"simulated series {row} contains a non-finite value at position {pos}")
    return values


def ar_autocovariances(coefficients, innovation_variance: float, max_lag: int) -> np.ndarray:
    """Autocovariances gamma_0..gamma_max_lag of a stable AR model.

    Solves the order-p moment system for gamma_0..gamma_p, then extends by
    the recursion gamma_k = sum_j a_j gamma_{k-j}.  Innovations only need
    unit-variance white noise for this to hold, not independence.
    """
    a = np.asarray(coefficients, dtype=float)
    p = a.size
    if p == 0:
        out = np.zeros(max_lag + 1)
        out[0] = innovation_variance
        return out
    # unknowns gamma_0..gamma_p: gamma_k - sum_j a_j gamma_|k-j| = v * 1{k=0}
    A = np.zeros((p + 1, p + 1))
    for k in range(p + 1):
        A[k, k] += 1.0
        for j in range(1, p + 1):
            A[k, abs(k - j)] -= a[j - 1]
    rhs = np.zeros(p + 1)
    rhs[0] = innovation_variance
    gamma = np.linalg.solve(A, rhs)
    out = np.empty(max_lag + 1)
    m = min(p, max_lag)
    out[: m + 1] = gamma[: m + 1]
    for k in range(p + 1, max_lag + 1):
        out[k] = a @ out[k - 1 : k - p - 1 : -1] if p > 1 else a[0] * out[k - 1]
    return out


def ma_autocovariances(theta, innovation_variance: float, max_lag: int) -> np.ndarray:
    """Autocovariances of X_t = eps_t + sum_k theta_k eps_{t-k}."""
    psi = np.concatenate(([1.0], np.asarray(theta, dtype=float)))
    out = np.zeros(max_lag + 1)
    for k in range(min(max_lag, psi.size - 1) + 1):
        out[k] = innovation_variance * (psi[k:] @ psi[: psi.size - k])
    return out


def model_autocovariances(model: str, rho: float, max_lag: int) -> np.ndarray:
    """Closed-form autocovariances for the linear models (unit noise variance).

    The nonlinear model has no closed form; callers fall back to a long
    plug-in simulation (see the Monte Carlo harness).
    """
    if model == "ar1":
        return ar_autocovariances((rho,), 1.0, max_lag)
    if model in AR_COEFFICIENTS:
        return ar_autocovariances(AR_COEFFICIENTS[model], 1.0, max_lag)
    if model == "ma3":
        return ma_autocovariances(MA3_THETA, 1.0, max_lag)
    raise ValueError(f"no closed-form autocovariances for model {model!r}")
