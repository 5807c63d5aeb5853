"""Sample second-order estimators and Yule-Walker machinery.

All estimators use the truncated-sum, divisor-T convention

    sigma_hat_j = (1/T) * sum_{i=j+1}^{T} X_i X_{i-j},

with no tapering and no bias correction.  A series is a 1-D float array,
assumed to have zero mean: the estimators never center it, so callers
working with raw data subtract the sample mean first (the CLI does unless
given ``--no-center``).

``yule_walker_fit`` is the package's one Yule-Walker solve: the point
estimate a_hat, every bootstrap replicate a* and every model or scenario
truth take the same Moore-Penrose solution of the Toeplitz system.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import scipy.linalg

from .errors import DegenerateVarianceError

# Singular values below PINV_RCOND times the largest are treated as zero in
# every Moore-Penrose pseudo-inverse taken by this package.
PINV_RCOND = 1e-10

ArrayLike = Union[np.ndarray, Sequence[float]]


def _values(x) -> np.ndarray:
    """The series as a 1-D float array, validated but not copied.

    Raises ``ValueError`` unless it is one-dimensional, holds at least 2
    observations and is finite; the first non-finite value is named by
    position.  No function of the package writes to its input series.
    """
    values = np.asarray(x, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"series must be one-dimensional, got shape {values.shape}")
    if values.size < 2:
        raise ValueError(f"series must have at least 2 observations, got {values.size}")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"series contains a non-finite value at position {bad}")
    return values


def autocov_vector(x, d: int) -> np.ndarray:
    """Sample autocovariances at lags 0..d as one array."""
    v = _values(x)
    T = v.size
    if not 0 <= d < T:
        raise ValueError(f"maximum lag {d} out of range for series of length {T}")
    return np.array([v[j:] @ v[: T - j] for j in range(d + 1)]) / T


def yule_walker_fit(sigma: ArrayLike, p: int) -> np.ndarray:
    """AR coefficients of order ``p`` from autocovariances sigma_0..sigma_p.

    Solves Sigma a = gamma, where Sigma = {sigma_|j-k|} is the p x p Toeplitz
    autocovariance matrix and gamma = (sigma_1, ..., sigma_p), as
    a = pinv(Sigma) gamma with rcond ``PINV_RCOND``: the unique solution
    when Sigma has full rank, and the minimum-norm least-squares one when it
    does not.  ``sigma`` holds autocovariances at lags 0..>=p, as one vector
    or as the rows of a stack; the stack is solved in one batched ``pinv``
    and ``matmul``, which give each row the bits of its own solve.  A row
    too small for that solve (subnormal autocovariances, whose kept singular
    values overflow on inversion) is solved again divided by its sigma_0,
    which leaves a unchanged.
    """
    S = np.atleast_2d(np.asarray(sigma, dtype=float))
    if p < 1 or S.ndim != 2 or S.shape[1] < p + 1:
        raise ValueError(f"need order p >= 1 and autocovariances 0..{p}, got shape {S.shape}")
    lags = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))

    def solve(rows):
        pinv = np.linalg.pinv(rows[:, lags], rcond=PINV_RCOND, hermitian=True)
        return np.matmul(pinv, rows[:, 1 : p + 1, None])[..., 0]

    with np.errstate(over="ignore", invalid="ignore"):
        a = solve(S)
    tiny = ~np.isfinite(a).all(axis=1)
    if tiny.any():
        a[tiny] = solve(S[tiny] / S[tiny, :1])
    return a[0] if np.ndim(sigma) == 1 else a


def _innovation_variances(sigma: np.ndarray, p_max: int) -> np.ndarray:
    """Levinson-Durbin one-step prediction variances v_0..v_q.

    Returns the variances for orders 0..q where q <= p_max; the recursion is
    cut short (q < p_max) if a step would produce a non-positive variance.
    """
    v = np.empty(p_max + 1)
    v[0] = sigma[0]
    if v[0] <= 0.0:
        raise DegenerateVarianceError("lag-0 autocovariance must be positive")
    a_prev = np.empty(0)
    for k in range(1, p_max + 1):
        acc = sigma[k] - (a_prev @ sigma[k - 1 : 0 : -1] if k > 1 else 0.0)
        kappa = acc / v[k - 1]
        v[k] = v[k - 1] * (1.0 - kappa * kappa)
        if not np.isfinite(v[k]) or v[k] <= 0.0:
            return v[:k]
        a = np.empty(k)
        a[k - 1] = kappa
        if k > 1:
            a[: k - 1] = a_prev - kappa * a_prev[::-1]
        a_prev = a
    return v


def ar_order_select_aic(x, p_max: int) -> int:
    """Select an AR order in 0..p_max by AIC.

    Runs the Levinson-Durbin recursion on the sample autocovariances to get
    innovation-variance estimates v_p and returns the minimizer of
    T*log(v_p) + 2p, ties broken toward the smaller order.  If the recursion
    hits a non-positive variance the candidate range is capped at the last
    valid order and a warning is emitted.
    """
    v = _values(x)
    T = v.size
    _check_order_range(p_max, T)
    return _order_select_aic(autocov_vector(v, p_max), T, p_max)


def _check_order_range(p_max: int, T: int) -> None:
    if not 0 <= p_max < T / 2:
        raise ValueError(f"p_max {p_max} out of range for series of length {T} (need 0 <= p_max < T/2)")


def _order_select_aic(sigma: np.ndarray, T: int, p_max: int) -> int:
    """AIC order from sample autocovariances at lags 0..>=p_max (range checked by the caller)."""
    variances = _innovation_variances(sigma, p_max)
    if variances.size < p_max + 1:
        warnings.warn(
            f"Levinson-Durbin recursion hit a non-positive variance; "
            f"order capped at {variances.size - 1}",
            RuntimeWarning,
            stacklevel=3,
        )
    orders = np.arange(variances.size)
    aic = T * np.log(variances) + 2.0 * orders
    return int(np.argmin(aic))


def linearization_matrix(sigma: ArrayLike, p: int) -> np.ndarray:
    """Jacobian-style coefficient matrix of the order-p Yule-Walker solution.

    The (p, p+1) matrix has one row per AR coefficient and one column per
    autocovariance lag 0..p; row j holds the coefficients b_{jk} of the
    linear combination

        Z_{i,j} = sum_{k=0}^{p} b_{jk} (X_i X_{i-k} - sigma_k)

    whose partial sums drive the fluctuations of the fitted coefficients.
    With Sigma the p x p Toeplitz matrix of sigma_0..sigma_{p-1}, gamma the
    vector (sigma_1..sigma_p), e_i the i-th unit vector and T_i the 0/1
    Toeplitz matrix indicating |j - k| = i, the columns are

        b_0 = -Sigma^{-2} gamma,
        b_i = Sigma^{-1} e_i - Sigma^{-1} T_i Sigma^{-1} gamma   (1 <= i < p),
        b_p = Sigma^{-1} e_p.

    Sigma is inverted through the Moore-Penrose pseudo-inverse so the
    construction degrades gracefully on rank-deficient inputs.
    """
    sigma = np.asarray(sigma, dtype=float)
    if p < 1:
        raise ValueError(f"order p must be >= 1, got {p}")
    if sigma.ndim != 1 or sigma.size < p + 1:
        raise ValueError(f"need autocovariances 0..{p}, got {sigma.size} values")
    Si = np.linalg.pinv(scipy.linalg.toeplitz(sigma[:p]), rcond=PINV_RCOND, hermitian=True)
    Si_gamma = Si @ sigma[1 : p + 1]
    cols = np.empty((p, p + 1))
    cols[:, 0] = -Si @ Si_gamma
    for i in range(1, p + 1):
        ei = np.zeros(p)
        ei[i - 1] = 1.0
        col = Si @ ei
        if i < p:
            # T_i has ones exactly where |row - col| = i; T_p would be all
            # zero inside a p x p matrix, so b_p reduces to Sigma^{-1} e_p.
            Ti = (np.abs(np.subtract.outer(np.arange(p), np.arange(p))) == i).astype(float)
            col = col - Si @ (Ti @ Si_gamma)
        cols[:, i] = col
    return cols


def second_order_residual_matrix(x, sigma_hat: np.ndarray, d: int) -> np.ndarray:
    """Rows of centered lagged products, zero-padded to a (d+1) x T matrix.

    Row j holds X_i X_{i-j} - sigma_hat_j at positions i = j+1..T and zeros
    in the first j slots, so that kernel-weighted double sums and multiplier
    contractions can run over full-length vectors.
    """
    v = _values(x)
    T = v.size
    if not 0 <= d < T:
        raise ValueError(f"maximum lag {d} out of range for series of length {T}")
    rows = np.zeros((d + 1, T))
    for j in range(d + 1):
        rows[j, j:] = v[j:] * v[: T - j] - sigma_hat[j]
    return rows


@dataclass(frozen=True)
class SecondOrderEstimates:
    """Point estimates sigma_hat, rho_hat, a_hat with their index metadata.

    ``sigma_hat`` and ``rho_hat`` are indexed by lag (``rho_hat[0]`` is the
    trivial 1.0), ``a_hat[k]`` is the coefficient at lag k+1.  ``H`` and
    ``I`` are the index sets over which simultaneous statements are made.
    ``used_pinv`` is True when the p x p Toeplitz matrix of sigma_hat has
    rank < p at ``PINV_RCOND``, so ``a_hat`` is the minimum-norm solution.
    """

    sigma_hat: np.ndarray
    rho_hat: np.ndarray
    a_hat: np.ndarray
    T: int
    d: int
    p: int
    H: tuple[int, ...]
    I: tuple[int, ...]
    used_pinv: bool = False


def normalize_lag_set(lags, d: int, lowest: int, name: str) -> tuple[int, ...]:
    """Validate and sort an index set of lags in {lowest..d}."""
    out = tuple(sorted({int(j) for j in lags}))
    if not out:
        raise ValueError(f"index set {name} must not be empty")
    if out[0] < lowest or out[-1] > d:
        raise ValueError(f"index set {name} must lie inside {{{lowest}..{d}}}, got {out}")
    return out


def estimate_second_order(x, d: int, p: int, H=None, I=None) -> SecondOrderEstimates:
    """Compute all second-order point estimates for lags up to ``d``.

    ``H`` defaults to {0..d} and ``I`` to {1..d}.  Requires p <= d and a
    non-degenerate lag-0 autocovariance.
    """
    v = _values(x)
    T = v.size
    if d >= T:
        raise ValueError(f"maximum lag {d} out of range for series of length {T}")
    H = normalize_lag_set(H if H is not None else range(d + 1), d, 0, "H")
    I = normalize_lag_set(I if I is not None else range(1, d + 1), d, 1, "I")
    return _estimates_from_autocov(autocov_vector(v, d), T, p, H, I)


def _estimates_from_autocov(sigma: np.ndarray, T: int, p: int, H, I) -> SecondOrderEstimates:
    """Estimates from the autocovariances at lags 0..d of a series of length T.

    Requires 1 <= p <= d = sigma.size - 1; ``H`` and ``I`` must already be
    validated against d.
    """
    d = sigma.size - 1
    if not 1 <= p <= d:
        raise ValueError(f"need 1 <= p <= d, got p={p}, d={d}")
    if sigma[0] == 0.0:
        raise DegenerateVarianceError("sample variance is zero, estimates undefined")
    # pinv's cutoff: eigenvalues at or below PINV_RCOND times the largest are dropped.
    eig = np.abs(np.linalg.eigvalsh(scipy.linalg.toeplitz(sigma[:p])))
    return SecondOrderEstimates(
        sigma_hat=sigma,
        rho_hat=sigma / sigma[0],
        a_hat=yule_walker_fit(sigma, p),
        T=T,
        d=d,
        p=p,
        H=H,
        I=I,
        used_pinv=bool(np.any(eig <= PINV_RCOND * eig.max())),
    )
