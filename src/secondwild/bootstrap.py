"""Second-order wild bootstrap: residuals, replicates, bands, and tests.

The procedure perturbs the centered lagged products ("second-order
residuals") with correlated Gaussian multipliers whose covariance is a
kernel of the lag distance, recomputes the second-order estimators on each
perturbed set, and reads simultaneous confidence radii off the empirical
quantiles of the replicate max statistics:

    1. residuals   eps_i^(j) = X_i X_{i-j} - sigma_hat_j
    2. multipliers e_1..e_T joint normal, E[e_s e_t] = K((s - t)/k_T)
    3. replicate   sigma*_j = sigma_hat_j + (1/T) sum_{i>j} eps_i^(j) e_i,
                   rho*_j = sigma*_j / sigma*_0,
                   a* = series.yule_walker_fit(sigma*), the same
                   Moore-Penrose solve that gives a_hat
    4. quantiles   of sqrt(T) max-deviations over B replicates
    5. bands       estimate +- radius / sqrt(T), or threshold tests.

Every entry point reads a series once, through ``_series_inputs``.
Replicate b draws its multipliers from stream (seed, b).  The replicates
run serially on one thread; ``_wild_sigma_star`` draws them for both
``run_bootstrap`` and the coverage study, and ``_max_deviations`` turns
autocovariance rows into max-deviations for both bootstraps and the
coverage study's observed statistics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import NumericalError
from .gaussian import PsdFactor, factorize_psd, gaussian_max_quantile
from .hac import (
    TARGET_ARCOEF,
    TARGET_AUTOCORR,
    TARGET_AUTOCOV,
    hac_arcoef_cov,
    hac_autocorr_cov,
    hac_autocov_cov,
)
from .kernels import BandwidthRule, _bandwidth_from_correlogram, _correlogram_lags, kernel_gram
from .quantiles import ecdf_pvalue, ecdf_quantile
from .rng import RngStream
from .series import (
    SecondOrderEstimates,
    _estimates_from_autocov,
    _values,
    autocov_vector,
    normalize_lag_set,
    second_order_residual_matrix,
    yule_walker_fit,
)

# Replicates are drawn in chunks of this many, so the T x _CHUNK block of
# multipliers they share stays small at any B.
_CHUNK = 64

TARGETS = (TARGET_AUTOCOV, TARGET_AUTOCORR, TARGET_ARCOEF)


@dataclass(frozen=True)
class BootstrapConfig:
    """Inputs of the bootstrap procedure.

    ``H`` indexes the autocovariances and ``I`` the autocorrelations covered
    by the simultaneous bands; ``p`` is the order of the fitted AR model.
    """

    d: int
    p: int
    H: tuple[int, ...]
    I: tuple[int, ...]
    bandwidth: BandwidthRule = field(default_factory=BandwidthRule.auto)
    B: int = 2000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"maximum lag d must be >= 1, got {self.d}")
        if not 1 <= self.p <= self.d:
            raise ValueError(f"need 1 <= p <= d, got p={self.p}, d={self.d}")
        object.__setattr__(self, "H", normalize_lag_set(self.H, self.d, 0, "H"))
        object.__setattr__(self, "I", normalize_lag_set(self.I, self.d, 1, "I"))
        if self.B < 1:
            raise ValueError(f"replicate count B must be >= 1, got {self.B}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class BootstrapDraws:
    """Replicate max statistics, one entry per replicate."""

    delta_sigma: np.ndarray
    delta_rho: np.ndarray
    delta_a: np.ndarray

    def __post_init__(self):
        for name in ("delta_sigma", "delta_rho", "delta_a"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size and not (np.all(np.isfinite(arr)) and np.all(arr >= 0.0)):
                raise ValueError(f"{name} must be nonnegative and finite")
            object.__setattr__(self, name, arr)

    def by_target(self) -> dict[str, np.ndarray]:
        return {
            TARGET_AUTOCOV: self.delta_sigma,
            TARGET_AUTOCORR: self.delta_rho,
            TARGET_ARCOEF: self.delta_a,
        }


@dataclass(frozen=True)
class FamilyBand:
    """Simultaneous band for one family of targets."""

    indices: tuple[int, ...]
    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class TestResult:
    statistic: float
    radius: float
    reject: bool
    p_value: float


@dataclass
class InferenceReport:
    """Point estimates, simultaneous radii and bands, and provenance.

    ``radii[target]`` is the 1 - alpha quantile C* of the replicate max
    statistics; each band in ``bands`` is estimate +- C* / sqrt(T), derived
    from ``estimates`` and ``radii`` on every read.  ``tests`` is filled
    by :func:`hypothesis_tests`.  P-values, where present, are ECDF
    complements of the bootstrap draws (an additive convenience; the binary
    reject decision is the normative output).
    """

    estimates: SecondOrderEstimates
    radii: dict[str, float]
    k_T: Optional[float]
    alpha: float
    seed: int
    method: str
    provenance: dict
    tests: Optional[dict[str, TestResult]] = None

    @property
    def bands(self) -> dict[str, FamilyBand]:
        return _make_bands(self.estimates, self.radii)

    def to_dict(self) -> dict:
        est = self.estimates
        out = {
            "method": self.method,
            "alpha": self.alpha,
            "seed": self.seed,
            "k_T": self.k_T,
            "estimates": {
                "T": est.T,
                "d": est.d,
                "p": est.p,
                "H": list(est.H),
                "I": list(est.I),
                "sigma_hat": est.sigma_hat.tolist(),
                "rho_hat": est.rho_hat.tolist(),
                "a_hat": est.a_hat.tolist(),
                "used_pinv": bool(est.used_pinv),
            },
            "radii": {k: self.radii[k] for k in sorted(self.radii)},
            "bands": {
                k: {
                    "index": list(b.indices),
                    "estimate": b.estimate.tolist(),
                    "lower": b.lower.tolist(),
                    "upper": b.upper.tolist(),
                }
                for k, b in sorted(self.bands.items())
            },
            "provenance": self.provenance,
        }
        if self.tests is not None:
            out["tests"] = {
                k: {
                    "statistic": t.statistic,
                    "radius": t.radius,
                    "reject": bool(t.reject),
                    "p_value": t.p_value,
                }
                for k, t in sorted(self.tests.items())
            }
            out["p_value_definition"] = "fraction of bootstrap draws >= observed statistic"
        return out


@lru_cache(maxsize=32)
def multiplier_factor(T: int, k_T: float) -> PsdFactor:
    """Factor of the multiplier covariance K((s - t)/k_T), cached."""
    return factorize_psd(kernel_gram(T, k_T))


def run_bootstrap(x, config: BootstrapConfig) -> tuple[InferenceReport, BootstrapDraws]:
    """Execute the full bootstrap and assemble the inference report.

    Replicate b draws its multipliers from stream (seed, b), so the result
    is a pure function of (x, config).  A replicate whose sigma*_0 is
    exactly zero is redrawn once from stream (seed, B + b); a second
    failure aborts.  Occurrences are counted in the report provenance.
    """
    v = _values(x)
    T = v.size
    sigma_hat, k_T, rows = _series_inputs(v, config.d, config.bandwidth)
    est = _estimates_from_autocov(sigma_hat, T, config.p, config.H, config.I)
    sigma_star, degenerate = _wild_sigma_star(
        est.sigma_hat, rows, multiplier_factor(T, k_T), config.seed, config.B
    )
    draws = _max_deviations(sigma_star, est.sigma_hat, config.H, config.I, config.p, T)
    level = 1.0 - config.alpha
    radii = {target: ecdf_quantile(values, level) for target, values in draws.by_target().items()}
    report = InferenceReport(
        estimates=est,
        radii=radii,
        k_T=k_T,
        alpha=config.alpha,
        seed=config.seed,
        method="wild_bootstrap",
        provenance=_provenance(config, k_T, degenerate, est),
    )
    return report, draws


def _series_inputs(v: np.ndarray, d: int, rule: BandwidthRule) -> tuple[np.ndarray, float, np.ndarray]:
    """sigma_hat at lags 0..d, k_T and the residual matrix, from one autocovariance pass.

    Each lag is its own dot product, so sigma_hat is bit-identical to
    ``autocov_vector(v, d)`` however far the rule's correlogram reaches.
    """
    T = v.size
    if T <= d:
        raise ValueError(f"series of length {T} too short for maximum lag {d}")
    sigma = autocov_vector(v, max(d, _correlogram_lags(T, rule)))
    sigma_hat = sigma[: d + 1]
    return sigma_hat, _bandwidth_from_correlogram(sigma, T, rule), second_order_residual_matrix(v, sigma_hat, d)


def _gaussian_multipliers(factor: PsdFactor, seed: int, b: int) -> np.ndarray:
    """Multipliers e = L z of replicate b, with z from stream (seed, b)."""
    z = RngStream(seed, b).generator().standard_normal(factor.dim)
    return factor.L @ z


def _wild_sigma_star(
    sigma_hat: np.ndarray, rows: np.ndarray, factor: PsdFactor, seed: int, B: int
) -> tuple[np.ndarray, int]:
    """Wild replicates 1..B, one row each.

    Returns sigma* = sigma_hat + rows @ e / T and the number of redrawn
    replicates.  Replicate b's multipliers e come from stream (seed, b);
    one whose sigma*_0 is exactly zero is redrawn once from stream
    (seed, B + b), and a second failure raises ``NumericalError``.
    """
    T = rows.shape[1]
    sigma_star = np.empty((B, rows.shape[0]))
    for start in range(0, B, _CHUNK):
        stop = min(start + _CHUNK, B)
        eps = np.empty((T, stop - start))
        for offset, b in enumerate(range(start + 1, stop + 1)):
            eps[:, offset] = _gaussian_multipliers(factor, seed, b)
        sigma_star[start:stop] = sigma_hat + (rows @ eps / T).T
    degenerate = np.flatnonzero(sigma_star[:, 0] == 0.0)
    for i in degenerate:
        b = int(i) + 1
        sigma_star[i] = sigma_hat + rows @ _gaussian_multipliers(factor, seed, B + b) / T
        if sigma_star[i, 0] == 0.0:
            raise NumericalError(f"replicate {b} degenerate (sigma*_0 = 0) after one redraw")
    return sigma_star, degenerate.size


def _max_deviations(sigma: np.ndarray, centre: np.ndarray, H, I, p: int, T: int) -> BootstrapDraws:
    """sqrt(T)-scaled max deviations of autocovariance rows from a centre.

    ``sigma`` holds autocovariances at lags 0..d, one row per replicate or
    repetition; ``centre`` is one such vector, or one per row.  Rows and
    centre are finished alike: rho_j = sigma_j / sigma_0 (0 where
    sigma_0 = 0) and a = ``yule_walker_fit(sigma, p)``.
    """
    H = np.asarray(H)
    I = np.asarray(I)

    def rho(s):
        s0 = s[..., :1]
        return np.divide(s, s0, out=np.zeros_like(s), where=s0 != 0.0)

    return BootstrapDraws(
        _max_abs(sigma[:, H] - centre[..., H], T),
        _max_abs(rho(sigma)[:, I] - rho(centre)[..., I], T),
        _max_abs(yule_walker_fit(sigma, p) - yule_walker_fit(centre, p), T),
    )


def _max_abs(rows: np.ndarray, T: int) -> np.ndarray:
    return np.sqrt(T) * np.abs(rows).max(axis=1)


def _make_bands(est: SecondOrderEstimates, radii: dict[str, float]) -> dict[str, FamilyBand]:
    half = {target: radii[target] / np.sqrt(est.T) for target in radii}
    families = {
        TARGET_AUTOCOV: (est.H, est.sigma_hat[list(est.H)]),
        TARGET_AUTOCORR: (est.I, est.rho_hat[list(est.I)]),
        TARGET_ARCOEF: (tuple(range(1, est.p + 1)), est.a_hat),
    }
    return {
        target: FamilyBand(
            indices=indices,
            estimate=np.asarray(values),
            lower=np.asarray(values) - half[target],
            upper=np.asarray(values) + half[target],
        )
        for target, (indices, values) in families.items()
    }


def _provenance(config: BootstrapConfig, k_T: float, degenerate: int, est: SecondOrderEstimates) -> dict:
    return {
        "d": config.d,
        "p": config.p,
        "H": list(config.H),
        "I": list(config.I),
        "kernel": "gaussian",
        "bandwidth": asdict(config.bandwidth),
        "B": config.B,
        "alpha": config.alpha,
        "seed": config.seed,
        "k_T_used": k_T,
        "degenerate_resamples": degenerate,
        "used_pinv": bool(est.used_pinv),
    }


def run_plugin(
    x,
    config: BootstrapConfig,
    n_mc: int = 200_000,
) -> InferenceReport:
    """Plug-in alternative to the bootstrap: HAC covariance + Gaussian-max oracle.

    Estimates the long-run covariance of each family with the kernel
    quadratic form over the residual rows that :func:`run_bootstrap`
    perturbs, built once, and reads the simultaneous radius off Monte Carlo
    quantiles of the maximum of the matching Gaussian vector.  Exposed next
    to :func:`run_bootstrap`; neither route is canonical.
    """
    v = _values(x)
    sigma_hat, k_T, rows = _series_inputs(v, config.d, config.bandwidth)
    est = _estimates_from_autocov(sigma_hat, v.size, config.p, config.H, config.I)
    covs = {
        TARGET_AUTOCOV: hac_autocov_cov(rows, config.H, k_T),
        TARGET_AUTOCORR: hac_autocorr_cov(rows, est.sigma_hat, config.I, k_T),
        TARGET_ARCOEF: hac_arcoef_cov(rows, est.sigma_hat, config.p, k_T),
    }
    radii = {}
    for index, (target, cov) in enumerate(sorted(covs.items())):
        stream = RngStream(config.seed, index + 1)
        radii[target] = gaussian_max_quantile(cov, config.alpha, n_mc, stream)
    provenance = _provenance(config, k_T, 0, est)
    provenance["n_mc"] = n_mc
    return InferenceReport(
        estimates=est,
        radii=radii,
        k_T=k_T,
        alpha=config.alpha,
        seed=config.seed,
        method="gaussian_plugin",
        provenance=provenance,
    )


def hypothesis_tests(
    report: InferenceReport,
    draws: BootstrapDraws,
    sigma_e=None,
    rho_e=None,
    a_e=None,
) -> dict[str, TestResult]:
    """Threshold tests against hypothesized values, with ECDF p-values.

    For each provided family the null is rejected when
    sqrt(T) * max_j |estimate_j - hypothesized_j| exceeds the family's
    radius.  Hypothesized vectors align with sorted(H), sorted(I) and lags
    1..p respectively and must be finite numbers.  The decisions are attached to ``report.tests`` and
    returned.
    """
    est = report.estimates
    sqrt_T = np.sqrt(est.T)
    results: dict[str, TestResult] = {}

    def _one(target, values, hypothesized, draws_arr):
        try:
            hypothesized = np.asarray(hypothesized, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"hypothesized {target} values must be numbers: {exc}") from exc
        if hypothesized.shape != values.shape:
            raise ValueError(
                f"hypothesized {target} values have shape {hypothesized.shape}, expected {values.shape}"
            )
        if not np.all(np.isfinite(hypothesized)):
            raise ValueError(f"hypothesized {target} values must be finite")
        stat = float(sqrt_T * np.abs(values - hypothesized).max())
        radius = report.radii[target]
        results[target] = TestResult(
            statistic=stat,
            radius=radius,
            reject=bool(stat > radius),
            p_value=ecdf_pvalue(draws_arr, stat),
        )

    if sigma_e is not None:
        _one(TARGET_AUTOCOV, est.sigma_hat[list(est.H)], sigma_e, draws.delta_sigma)
    if rho_e is not None:
        _one(TARGET_AUTOCORR, est.rho_hat[list(est.I)], rho_e, draws.delta_rho)
    if a_e is not None:
        _one(TARGET_ARCOEF, est.a_hat, a_e, draws.delta_a)
    if not results:
        raise ValueError("no hypothesized values supplied")
    report.tests = results
    return results
