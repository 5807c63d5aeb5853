"""Kernel-weighted long-run covariance estimators.

Each estimator evaluates the quadratic form

    (1/T) * sum_{i1=j1+1}^{T} sum_{i2=j2+1}^{T} K((i1 - i2)/k_T) r_{i1}^{(j1)} r_{i2}^{(j2)}

for a family of residual sequences r^{(j)}: centered lagged products for
autocovariances, their studentized combination for autocorrelations, and
the Yule-Walker linearization for fitted AR coefficients.  Each estimator
returns the symmetric matrix of the form over its index set as a plain
array, rows and columns in sorted index order.  Each row is
zero in its first j slots, so the double sum is sum_i r_a[i] (w * r_b)[i]
with w the two-sided kernel window K(m/k_T), |m| <= m_max, truncated where
K falls below a cutoff (default 1e-12).  The convolution w * r_b treats
positions outside [0, T) as zero, which reproduces the truncated limits
exactly.  It is taken by overlap-add FFT over blocks of output positions,
so the work is O(T log window) and the scratch memory is bounded by the
block length, not by T.
"""

from __future__ import annotations

import numpy as np
import scipy.signal

from .errors import DegenerateVarianceError
from .kernels import kernel_eval, kernel_window
from .series import (
    SecondOrderEstimates,
    linearization_matrix,
    normalize_lag_set,
    second_order_residual_matrix,
)

TARGET_AUTOCOV = "autocovariance"
TARGET_AUTOCORR = "autocorrelation"
TARGET_ARCOEF = "ar_coefficients"


# Output positions smoothed per convolution; bounds the scratch memory.
_BLOCK = 1 << 16


def _weighted_quadratic(rows: np.ndarray, k_T: float, cutoff: float) -> np.ndarray:
    """Kernel-weighted cross sums of zero-padded rows, divided by T.

    Rows must already be zero outside their defined range; the padding makes
    the truncated summation limits implicit.
    """
    n, T = rows.shape
    m_max = kernel_window(k_T, cutoff=cutoff, limit=T - 1)
    w = kernel_eval(np.arange(-m_max, m_max + 1) / k_T)[np.newaxis, :]
    out = np.zeros((n, n))
    for s in range(0, T, _BLOCK):
        e = min(s + _BLOCK, T)
        lo = max(0, s - m_max)
        hi = min(T, e + m_max)
        # "full" output index k is position lo + k - m_max.
        smoothed = scipy.signal.oaconvolve(rows[:, lo:hi], w, mode="full", axes=1)
        out += rows[:, s:e] @ smoothed[:, s - lo + m_max : e - lo + m_max].T
    return (out + out.T) / (2.0 * T)


def hac_autocov_cov(
    x,
    est: SecondOrderEstimates,
    H,
    k_T: float,
    window_cutoff: float = 1e-12,
) -> np.ndarray:
    """Long-run covariance of sqrt(T) * sigma_hat over the lag set ``H``.

    Returns the symmetric (|H|, |H|) matrix, rows and columns in sorted
    lag order.
    """
    H = normalize_lag_set(H, est.d, 0, "H")
    rows = second_order_residual_matrix(x, est.sigma_hat, est.d)[list(H)]
    return _weighted_quadratic(rows, k_T, window_cutoff)


def hac_autocorr_cov(
    x,
    est: SecondOrderEstimates,
    I,
    k_T: float,
    window_cutoff: float = 1e-12,
) -> np.ndarray:
    """Long-run covariance of sqrt(T) * rho_hat over the lag set ``I``.

    Returns the symmetric (|I|, |I|) matrix in sorted lag order.  Uses the studentized residuals

        Zhat_{i,j} = -(sigma_hat_j / sigma_hat_0^2)(X_i^2 - sigma_hat_0)
                     + (1 / sigma_hat_0)(X_i X_{i-j} - sigma_hat_j),

    summed from i = j + 1 for row j.
    """
    I = normalize_lag_set(I, est.d, 1, "I")
    s0 = est.sigma_hat[0]
    if s0 == 0.0:
        raise DegenerateVarianceError("sample variance is zero, autocorrelation residuals undefined")
    resid = second_order_residual_matrix(x, est.sigma_hat, est.d)
    rows = np.empty((len(I), resid.shape[1]))
    for idx, j in enumerate(I):
        row = resid[j] / s0 - (est.sigma_hat[j] / (s0 * s0)) * resid[0]
        row[:j] = 0.0
        rows[idx] = row
    return _weighted_quadratic(rows, k_T, window_cutoff)


def hac_arcoef_cov(
    x,
    est: SecondOrderEstimates,
    p: int,
    k_T: float,
    window_cutoff: float = 1e-12,
) -> np.ndarray:
    """Long-run covariance of sqrt(T) * a_hat for the order-p Yule-Walker fit.

    Returns the symmetric (p, p) matrix over lags 1..p.  Row j combines the centered lagged products through the linearization
    matrix built from the sample autocovariances (pseudo-inverse route):

        Zhat_{i,j} = sum_{k=0}^{p} bhat_{jk} (X_i X_{i-k} - sigma_hat_k),

    with products at i <= k absent (the truncated-sum convention) and the
    outer sums starting at i = j + 1.
    """
    if not 1 <= p <= est.d:
        raise ValueError(f"need 1 <= p <= d, got p={p}, d={est.d}")
    lin = linearization_matrix(est.sigma_hat[: p + 1], p)
    resid = second_order_residual_matrix(x, est.sigma_hat, p)
    rows = lin @ resid
    for j in range(1, p + 1):
        rows[j - 1, :j] = 0.0
    return _weighted_quadratic(rows, k_T, window_cutoff)
