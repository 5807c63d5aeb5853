"""AR-sieve bootstrap comparator.

Fits an autoregression by Yule-Walker (order chosen by AIC), resamples the
centered in-sample residuals i.i.d., regenerates full-length series through
the fitted recursion, and reads confidence radii off the same max statistics
and quantile rule as the wild bootstrap.  Replicate statistics are centered
at the fitted model's own second-order parameters (the bootstrap-world
truth), which match the sample estimates at lags up to the fitted order up
to the O(1/T) ratio between the residual-pool variance and the Yule-Walker
innovation variance.

This comparator resamples residuals independently, so it is only adequate
when the innovations driving the data really are i.i.d.; with merely
uncorrelated innovations its AR-coefficient bands come out too narrow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.signal

from .bootstrap import BootstrapDraws, InferenceReport, _max_deviations
from .dgp import ar_autocovariances
from .errors import NumericalError
from .quantiles import ecdf_quantile
from .rng import RngStream
from .series import (
    _check_order_range,
    _estimates_from_autocov,
    _order_select_aic,
    _values,
    autocov_vector,
    normalize_lag_set,
    yule_walker_fit,
)

# Roots of the fitted polynomial must stay outside the unit circle by this
# margin; offenders are shrunk toward zero before simulation.
_ROOT_MARGIN = 1e-6
_SHRINK = 0.99
_MAX_SHRINK_STEPS = 50


@dataclass(frozen=True)
class SieveConfig:
    """Inputs of the sieve procedure (fit order is chosen by AIC <= p_max)."""

    p_max: int = 8
    B: int = 2000
    alpha: float = 0.05
    seed: int = 0
    burn_in: int = 1000

    def __post_init__(self):
        if self.p_max < 0:
            raise ValueError(f"p_max must be >= 0, got {self.p_max}")
        if self.B < 1:
            raise ValueError(f"replicate count B must be >= 1, got {self.B}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.burn_in < 100:
            raise ValueError(f"burn_in must be >= 100, got {self.burn_in}")


def stabilize_ar(coefficients: np.ndarray) -> tuple[np.ndarray, int]:
    """Shrink coefficients toward zero until the fitted polynomial is stable.

    Stability means every root of 1 - sum_j a_j z^j lies outside the closed
    unit disk by at least ``_ROOT_MARGIN``.  Returns the (possibly shrunk)
    coefficients and the number of shrink steps applied.
    """
    a = np.asarray(coefficients, dtype=float).copy()
    for step in range(_MAX_SHRINK_STEPS + 1):
        if a.size == 0 or not np.any(a):
            return a, step
        poly = np.concatenate((-a[::-1], [1.0]))
        roots = np.roots(poly)
        if roots.size == 0 or np.abs(roots).min() > 1.0 + _ROOT_MARGIN:
            return a, step
        a = _SHRINK * a
    raise NumericalError(
        f"fitted AR polynomial still unstable after {_MAX_SHRINK_STEPS} shrink steps"
    )


def _fit_sieve_autocov(v: np.ndarray, sigma: np.ndarray, p_max: int):
    """AIC order, stabilized coefficients, centered residual pool.

    ``sigma`` holds the autocovariances of ``v`` at lags 0..>=p_max; the
    caller has checked p_max with ``_check_order_range``.
    """
    p_fit = _order_select_aic(sigma, v.size, p_max)
    if p_fit == 0:
        coef = np.empty(0)
        shrink_steps = 0
        resid = v.copy()
    else:
        coef = yule_walker_fit(sigma, p_fit)
        coef, shrink_steps = stabilize_ar(coef)
        T = v.size
        resid = v[p_fit:].copy()
        for j in range(1, p_fit + 1):
            resid -= coef[j - 1] * v[p_fit - j : T - j]
    resid -= resid.mean()
    return p_fit, coef, shrink_steps, resid


@dataclass(frozen=True)
class _SieveWorld:
    """The fitted model replicates are drawn from, and its second-order truth."""

    p_fit: int
    coef: np.ndarray
    shrink_steps: int
    pool: np.ndarray
    innovation_variance: float
    sigma: np.ndarray


def _sieve_world(fit, d: int) -> _SieveWorld:
    p_fit, coef, shrink_steps, pool = fit
    v_boot = float(np.mean(pool * pool))
    return _SieveWorld(p_fit, coef, shrink_steps, pool, v_boot, ar_autocovariances(coef, v_boot, d))


def _sieve_sigma_star(world: _SieveWorld, seed: int, B: int, burn_in: int, T: int, d: int) -> np.ndarray:
    """Autocovariances at lags 0..d of replicates 1..B, one row each.

    Replicate b resamples the pool with stream (seed, b), regenerates
    burn_in + T values through the fitted recursion from zeros, and keeps
    the last T.
    """
    denom = np.concatenate(([1.0], -world.coef))
    pool = world.pool
    out = np.empty((B, d + 1))
    for b in range(1, B + 1):
        g = RngStream(seed, b).generator()
        resampled = pool[g.integers(0, pool.size, size=burn_in + T)]
        xs = scipy.signal.lfilter([1.0], denom, resampled)[burn_in:] if world.coef.size else resampled[burn_in:]
        out[b - 1] = autocov_vector(xs, d)
    return out


def ar_sieve_bootstrap(
    x,
    d: int,
    p: int,
    H,
    I,
    cfg: SieveConfig,
) -> tuple[InferenceReport, BootstrapDraws]:
    """Simultaneous bands for sigma, rho, and the order-p AR coefficients.

    ``p`` is the inference order (the a_hat family under study); the
    regeneration order is chosen internally by AIC up to ``cfg.p_max``.
    Replicate b resamples residuals with stream (seed, b), regenerates
    burn_in + T values through the fitted recursion from zeros, and keeps
    the last T.
    """
    v = _values(x)
    T = v.size
    if T <= d:
        raise ValueError(f"series of length {T} too short for maximum lag {d}")
    H = normalize_lag_set(H, d, 0, "H")
    I = normalize_lag_set(I, d, 1, "I")
    _check_order_range(cfg.p_max, T)
    sigma = autocov_vector(v, max(d, cfg.p_max))
    est = _estimates_from_autocov(sigma[: d + 1], T, p, H, I)
    world = _sieve_world(_fit_sieve_autocov(v, sigma, cfg.p_max), d)
    sigma_star = _sieve_sigma_star(world, cfg.seed, cfg.B, cfg.burn_in, T, d)
    draws = _max_deviations(sigma_star, world.sigma, H, I, p, T)
    level = 1.0 - cfg.alpha
    radii = {target: ecdf_quantile(values, level) for target, values in draws.by_target().items()}
    report = InferenceReport(
        estimates=est,
        radii=radii,
        k_T=None,
        alpha=cfg.alpha,
        seed=cfg.seed,
        method="ar_sieve",
        provenance={
            "d": d,
            "p": p,
            "H": list(H),
            "I": list(I),
            "p_max": cfg.p_max,
            "fitted_order": world.p_fit,
            "shrink_steps": world.shrink_steps,
            "B": cfg.B,
            "alpha": cfg.alpha,
            "seed": cfg.seed,
            "burn_in": cfg.burn_in,
            "residual_pool_size": int(world.pool.size),
            "innovation_variance": world.innovation_variance,
        },
    )
    return report, draws
