"""Correlated Gaussian sampling and the Gaussian-max quantile oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPsdError
from .quantiles import ecdf_quantile
from .rng import RngStream

# Escalating relative diagonal jitter tried before declaring a matrix not PSD.
JITTER_LEVELS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

_SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class PsdFactor:
    """Lower-triangular factor L with L L^T close to the input matrix.

    ``jitter`` is the absolute amount added to the diagonal before the
    factorization succeeded (0.0 for cleanly positive definite inputs), so
    |L L^T - M|_max <= jitter.
    """

    L: np.ndarray
    jitter: float

    @property
    def dim(self) -> int:
        return self.L.shape[0]


def factorize_psd(M) -> PsdFactor:
    """Cholesky factorization with escalating diagonal jitter.

    Jitter levels 1e-10 ... 1e-6 (relative to 1 + |M|_max) are tried in
    order; failure at the last level raises ``NotPsdError`` carrying the
    most negative eigenvalue.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = float(np.abs(M).max(initial=0.0))
    if scale == 0.0:
        return PsdFactor(L=np.zeros_like(M), jitter=0.0)
    if np.abs(M - M.T).max() > 1e-8 * (1.0 + scale):
        raise ValueError("matrix is not symmetric")
    eye = np.eye(M.shape[0])
    for level in JITTER_LEVELS:
        jitter = level * (1.0 + scale)
        try:
            L = np.linalg.cholesky(M + jitter * eye if jitter else M)
            return PsdFactor(L=L, jitter=jitter)
        except np.linalg.LinAlgError:
            continue
    most_negative = float(np.linalg.eigvalsh(M)[0])
    raise NotPsdError(
        f"matrix is not positive semi-definite within jitter tolerance "
        f"(most negative eigenvalue {most_negative:.3e})",
        most_negative=most_negative,
    )


def max_abs_normal_sample(cov, n: int, stream: RngStream) -> np.ndarray:
    """``n`` independent draws of max_j |xi_j| for xi ~ N(0, cov)."""
    factor = cov if isinstance(cov, PsdFactor) else factorize_psd(cov)
    g = stream.generator()
    k = factor.dim
    out = np.empty(n)
    pos = 0
    while pos < n:
        m = min(_SAMPLE_CHUNK, n - pos)
        z = g.standard_normal((m, k))
        out[pos : pos + m] = np.abs(z @ factor.L.T).max(axis=1)
        pos += m
    return out


def gaussian_max_quantile(cov, alpha: float, n_mc: int, stream: RngStream) -> float:
    """Monte Carlo 1 - alpha quantile of max_j |xi_j|, xi ~ N(0, cov).

    ``cov`` may be a symmetric matrix, such as one returned by the
    ``hac_*`` estimators, or a pre-computed ``PsdFactor``.  The quantile
    uses the same inverse-ECDF rule as the bootstrap, so the two routes are
    directly comparable.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n_mc < 1000:
        raise ValueError(f"n_mc must be >= 1000 for a stable quantile, got {n_mc}")
    maxima = max_abs_normal_sample(cov, n_mc, stream)
    return ecdf_quantile(maxima, 1.0 - alpha)
