"""Shared test helpers: independent brute-force oracles and slow fixtures.

The oracle implementations here deliberately mirror the defining formulas
with explicit Python loops (and compensated summation where it matters), so
they share no code path with the package's vectorized implementations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from secondwild.bootstrap import BootstrapConfig, run_bootstrap
from secondwild.dgp import DgpSpec, gen_series
from secondwild.errors import DegenerateVarianceError
from secondwild.harness import (
    TARGETS,
    CoverageReport,
    CoverageRow,
    Scenario,
    all_scenarios,
    coverage_study,
    true_autocovariances,
)
from secondwild.hac import TARGET_ARCOEF, TARGET_AUTOCORR, TARGET_AUTOCOV
from secondwild.kernels import BandwidthRule, select_bandwidth
from secondwild.quantiles import ecdf_quantile
from secondwild.rng import RngStream, derive_seed
from secondwild.series import PINV_RCOND, ar_order_select_aic, estimate_second_order
from secondwild.sieve import SieveConfig, ar_sieve_bootstrap

ACCEPTANCE_SEED = 0


@dataclass(frozen=True)
class TimedCoverage:
    report: CoverageReport
    wall_s: float


def brute_autocov(x, j):
    """Direct truncated-sum autocovariance, divisor T."""
    x = np.asarray(x, dtype=float)
    T = len(x)
    return math.fsum(x[i] * x[i - j] for i in range(j, T)) / T


def brute_residual_rows(x, sigma_hat, lags):
    """Residual rows by definition: row j has X_i X_{i-j} - sigma_j, i > j."""
    x = np.asarray(x, dtype=float)
    T = len(x)
    rows = []
    for j in lags:
        row = np.zeros(T)
        for i in range(j, T):
            row[i] = x[i] * x[i - j] - sigma_hat[j]
        rows.append(row)
    return rows


def brute_kernel_double_sum(rows, K, k_T):
    """O(T^2) double loop over all index pairs, fsum-compensated."""
    n = len(rows)
    T = len(rows[0])
    out = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            terms = []
            for i1 in range(T):
                r1 = rows[a][i1]
                if r1 == 0.0:
                    continue
                for i2 in range(T):
                    r2 = rows[b][i2]
                    if r2 != 0.0:
                        terms.append(K((i1 - i2) / k_T) * r1 * r2)
            out[a, b] = math.fsum(terms) / T
    return out


def brute_autocorr_rows(x, sigma_hat, lags):
    """Studentized residual rows for the autocorrelation estimator."""
    x = np.asarray(x, dtype=float)
    T = len(x)
    s0 = sigma_hat[0]
    rows = []
    for j in lags:
        row = np.zeros(T)
        for i in range(j, T):
            row[i] = (
                -(sigma_hat[j] / (s0 * s0)) * (x[i] * x[i] - s0)
                + (x[i] * x[i - j] - sigma_hat[j]) / s0
            )
        rows.append(row)
    return rows


def brute_arcoef_rows(x, sigma_hat, B_matrix, p):
    """Linearized residual rows for the AR-coefficient estimator.

    Products X_i X_{i-k} with i - k < 0 (0-based) are absent, matching the
    truncated-sum convention; row j is zeroed for i <= j - 1 (0-based i < j).
    """
    x = np.asarray(x, dtype=float)
    T = len(x)
    rows = []
    for j in range(1, p + 1):
        row = np.zeros(T)
        for i in range(T):
            if i < j:
                continue
            acc = []
            for k in range(p + 1):
                if i - k >= 0:
                    acc.append(B_matrix[j - 1, k] * (x[i] * x[i - k] - sigma_hat[k]))
                else:
                    acc.append(B_matrix[j - 1, k] * 0.0)
            row[i] = math.fsum(acc)
        rows.append(row)
    return rows


def gaussian_K(t):
    return math.exp(-0.5 * t * t)


def reference_pinv_yule_walker(sigma, p):
    """Moore-Penrose Yule-Walker solve of one autocovariance vector."""
    Sigma = scipy.linalg.toeplitz(sigma[:p])
    pinv = np.linalg.pinv(Sigma, rcond=PINV_RCOND, hermitian=True)
    return pinv @ sigma[1 : p + 1]


def reference_bootstrap_replicate(est, rows, multipliers, p, I):
    """One wild replicate (sigma*, rho* over I, a*) from full-length multipliers.

    ``rows`` is the zero-padded (d+1, T) residual matrix, so row j consumes
    entries i = j+1..T of the multiplier vector e_1..e_T.  Raises
    ``DegenerateVarianceError`` when sigma*_0 lands exactly on zero.
    """
    multipliers = np.asarray(multipliers, dtype=float)
    assert multipliers.shape == (rows.shape[1],)
    sigma_star = est.sigma_hat + rows @ multipliers / rows.shape[1]
    if sigma_star[0] == 0.0:
        raise DegenerateVarianceError("replicate produced sigma*_0 = 0")
    rho_star = sigma_star[list(I)] / sigma_star[0]
    return sigma_star, rho_star, reference_pinv_yule_walker(sigma_star, p)


def reference_coverage_study(
    scenarios, T, reps, stream, mode="warp_speed", B=500, alpha=0.05, d=7,
    H=(0, 1, 2, 3), I=(1, 2, 3, 4), p_max=7, methods=("wild", "sieve"), burn_in=1000,
):
    """``coverage_study`` one repetition at a time through the public API.

    Every repetition simulates its series with ``gen_series``, estimates it,
    and runs ``run_bootstrap`` and ``ar_sieve_bootstrap`` on it with the
    harness's seeds, so the blocked study must reproduce its report bit for
    bit.
    """
    scenarios = [s if isinstance(s, Scenario) else Scenario.parse(str(s)) for s in scenarios]
    level = 1.0 - alpha
    B_rep = 1 if mode == "warp_speed" else B
    H_idx = np.asarray(sorted(H))
    I_idx = np.asarray(sorted(I))
    rows = []
    for s_idx, scen in enumerate(scenarios):
        sigma_true, approx = true_autocovariances(scen.model, scen.innovation, scen.rho, d)
        rho_true = sigma_true / sigma_true[0]

        def _series(seed):
            return gen_series(DgpSpec(model=scen.model, innovation=scen.innovation, T=T,
                                      rho=scen.rho, burn_in=burn_in, seed=seed))

        pilot_orders = [
            max(1, ar_order_select_aic(_series(derive_seed(stream.seed, (stream.stream_index, s_idx, i, 3))), p_max))
            for i in range(11)
        ]
        p_scen = int(np.bincount(pilot_orders).argmax())
        a_true = reference_pinv_yule_walker(sigma_true, p_scen)
        stats = {t: np.empty(reps) for t in TARGETS}
        draws = {m: {t: np.empty(reps) for t in TARGETS} for m in methods}
        covered = {m: {t: np.empty(reps, dtype=bool) for t in TARGETS} for m in methods}
        kts = np.empty(reps)
        for r in range(reps):
            series = _series(derive_seed(stream.seed, (stream.stream_index, s_idx, r, 0)))
            k_T = select_bandwidth(series, BandwidthRule.auto())
            kts[r] = k_T
            est = estimate_second_order(series, d, p_scen, H_idx, I_idx)
            stats[TARGET_AUTOCOV][r] = np.sqrt(T) * np.abs(est.sigma_hat[H_idx] - sigma_true[H_idx]).max()
            stats[TARGET_AUTOCORR][r] = np.sqrt(T) * np.abs(est.rho_hat[I_idx] - rho_true[I_idx]).max()
            stats[TARGET_ARCOEF][r] = np.sqrt(T) * np.abs(est.a_hat - a_true).max()
            runs = {}
            if "wild" in methods:
                config = BootstrapConfig(
                    d=d, p=p_scen, H=tuple(H_idx), I=tuple(I_idx), bandwidth=BandwidthRule.fixed(k_T),
                    B=B_rep, alpha=alpha, seed=derive_seed(stream.seed, (stream.stream_index, s_idx, r, 1)),
                )
                runs["wild"] = run_bootstrap(series, config)
            if "sieve" in methods:
                cfg = SieveConfig(p_max=p_max, B=B_rep, alpha=alpha, burn_in=burn_in,
                                  seed=derive_seed(stream.seed, (stream.stream_index, s_idx, r, 2)))
                runs["sieve"] = ar_sieve_bootstrap(series, d, p_scen, H_idx, I_idx, cfg)
            for method, (report, rep_draws) in runs.items():
                for t in TARGETS:
                    draws[method][t][r] = rep_draws.by_target()[t][0]
                    covered[method][t][r] = stats[t][r] <= report.radii[t]
        for method in methods:
            for t in TARGETS:
                if mode == "warp_speed":
                    cov = float(np.mean(stats[t] <= ecdf_quantile(draws[method][t], level)))
                else:
                    cov = float(np.mean(covered[method][t]))
                rows.append(CoverageRow(
                    model=scen.model, innovation=scen.innovation.value, rho=scen.rho, target=t,
                    method=method, coverage=cov, se=float(np.sqrt(cov * (1.0 - cov) / reps)),
                    order=p_scen, mean_k_T=float(kts.mean()), reps=reps, T=T, truth_approximate=approx,
                ))
    return CoverageReport(rows=tuple(rows), T=T, reps=reps, alpha=alpha, mode=mode, B=B_rep, seed=stream.seed)


@pytest.fixture(scope="session")
def full_coverage_report() -> TimedCoverage:
    """The full-grid warp-speed coverage study shared by acceptance tests.

    Heavy (minutes); computed once per session at the scale the acceptance
    criteria state: reps=2000, T=1000, alpha=0.05, defaults d=7, H={0..3},
    I={1..4}.  The grid holds sixteen scenarios: the fifteen model x
    innovation scenarios with the AR(1) coefficient 0.9, plus the
    ar1(0.7):product scenario used by the sieve-failure criterion.  At 0.9
    the product-innovation variance inflation is too mild for the sieve to
    fail: with these seeds its ar1(0.9) AR-coefficient coverage is 93.2%,
    against 83.6% at 0.7.  Because ar1:product then appears twice, lookups
    of it must name ``rho``.
    """
    scenarios = all_scenarios(rho=0.9) + [
        Scenario(model="ar1", innovation="product_of_normals", rho=0.7)
    ]
    started = time.perf_counter()
    report = coverage_study(
        scenarios,
        T=1000,
        reps=2000,
        stream=RngStream(ACCEPTANCE_SEED),
        mode="warp_speed",
        alpha=0.05,
    )
    return TimedCoverage(report=report, wall_s=time.perf_counter() - started)
