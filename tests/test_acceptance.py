"""Acceptance suite.

Each test exercises one acceptance criterion at its stated scale and
tolerance and prints a single PASS/FAIL line (run pytest with -s, or read
captured output on failure).  The full-grid coverage study is computed once
per session and shared by the criteria that read it.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.stats

from conftest import (
    ACCEPTANCE_SEED,
    brute_arcoef_rows,
    brute_autocorr_rows,
    brute_kernel_double_sum,
    brute_residual_rows,
    gaussian_K,
    reference_bootstrap_replicate,
)
from secondwild.bootstrap import (
    BootstrapConfig,
    hypothesis_tests,
    multiplier_factor,
    run_bootstrap,
)
from secondwild.cli import main as cli_main
from secondwild.dgp import DgpSpec, gen_innovations
from secondwild.gaussian import gaussian_max_quantile
from secondwild.hac import (
    TARGET_ARCOEF,
    TARGET_AUTOCORR,
    hac_arcoef_cov,
    hac_autocorr_cov,
    hac_autocov_cov,
)
from secondwild.harness import VarianceStudyReport, gaussian_approx_check
from secondwild.kernels import BandwidthRule, select_bandwidth
from secondwild.rng import RngStream, derive_seed
from secondwild.series import estimate_second_order, linearization_matrix, second_order_residual_matrix

VARIANCE_TARGETS = {
    "independent": (0.52, 20.74),
    "product_of_normals": (1.03, 57.34),
    "non_stationary": (1.58, 70.51),
}

SIEVE_FAILURE_MODELS = ("ar1", "ar2", "ar4", "nlar2")
# the full-coverage fixture holds ar1:product at both 0.9 and 0.7; the sieve
# failure is pinned at 0.7.  rho drives only the ar1 model, so the others
# have one row each and are looked up, and reported, without it
SIEVE_FAILURE_RHO = {"ar1": 0.7}


def _verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_variance_study_reference_values(tmp_path):
    started = time.perf_counter()
    code = cli_main(
        ["variance-study", "--n", "10000", "--reps", "2000",
         "--seed", str(ACCEPTANCE_SEED), "--out", str(tmp_path)]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    report = VarianceStudyReport.from_csv(
        (tmp_path / "variance_study.csv").read_text(),
        n=10_000, reps=2000, rho=0.7, seed=ACCEPTANCE_SEED,
    )
    details = []
    ok = elapsed < 300.0
    for row in report.rows:
        t_rho, t_g1 = VARIANCE_TARGETS[row.innovation]
        ok_row = (
            abs(row.var_root_rho - t_rho) <= 0.15 * t_rho
            and abs(row.var_root_gamma1 - t_g1) <= 0.15 * t_g1
        )
        ok = ok and ok_row
        details.append(
            f"{row.innovation}: {row.var_root_rho:.3f}/{t_rho} {row.var_root_gamma1:.2f}/{t_g1}"
        )
    passed = _verdict(1, ok, f"variance study within 15% ({'; '.join(details)}; {elapsed:.0f}s)")
    assert passed


def test_criterion_2_coverage_within_band(full_coverage_report):
    report = full_coverage_report.report
    bad = []
    for row in report.rows:
        if row.method != "wild":
            continue
        if not 0.90 <= row.coverage <= 0.98:
            bad.append(f"{row.model}:{row.innovation}:{row.target}={100 * row.coverage:.1f}%")
    wild = [r.coverage for r in report.rows if r.method == "wild"]
    ok = not bad and full_coverage_report.wall_s < 1200.0
    passed = _verdict(
        2,
        ok,
        f"wild coverage in [90,98]% across {len(wild)} rows "
        f"(range {100 * min(wild):.1f}-{100 * max(wild):.1f}%, "
        f"{full_coverage_report.wall_s:.0f}s)" + (f"; outside: {bad}" if bad else ""),
    )
    assert passed


def test_criterion_3_sieve_failure_reproduced(full_coverage_report):
    report = full_coverage_report.report
    with pytest.raises(KeyError, match="pass rho"):
        report.row("ar1", "product_of_normals", TARGET_ARCOEF, "sieve")
    rows = [
        report.row(model, "product_of_normals", TARGET_ARCOEF, "sieve",
                   rho=SIEVE_FAILURE_RHO.get(model))
        for model in SIEVE_FAILURE_MODELS
    ]
    ok = all(row.coverage < 0.88 for row in rows)
    detail = ", ".join(
        f"{r.model}{f'({r.rho})' if r.model in SIEVE_FAILURE_RHO else ''}={100 * r.coverage:.1f}%"
        for r in rows
    )
    passed = _verdict(3, ok, f"sieve AR-coefficient coverage under product innovations ({detail})")
    assert passed


def test_criterion_4_conditional_covariance_identity():
    T, B = 300, 50_000
    H = (0, 1, 2, 3)
    worst = 0.0
    for s in range(20):
        x = RngStream(derive_seed(1404, (s,)), 0).generator().standard_normal(T)
        est = estimate_second_order(x, 3, 1, H, (1,))
        resid = second_order_residual_matrix(x, est.sigma_hat, 3)
        k_T = select_bandwidth(x, BandwidthRule.auto())
        factor = multiplier_factor(T, k_T)
        hac = hac_autocov_cov(x, est, H, k_T)
        seed = derive_seed(1405, (s,))
        acc = np.zeros((4, 4))
        chunk = 512
        for start in range(0, B, chunk):
            nb = min(chunk, B - start)
            Z = np.empty((T, nb))
            for j in range(nb):
                Z[:, j] = RngStream(seed, start + j + 1).generator().standard_normal(T)
            eps = factor.L @ Z
            deltas = resid @ eps / T
            acc += deltas @ deltas.T
            if start == 0:
                # route coupling: the batched deltas are exactly what
                # the reference replicate produces for the same multipliers
                sigma_star, _, _ = reference_bootstrap_replicate(est, resid, eps[:, 0], 1, (1,))
                assert sigma_star == pytest.approx(est.sigma_hat + deltas[:, 0], rel=1e-12)
        emp = acc * T / B
        denom = np.sqrt(np.outer(np.diag(hac), np.diag(hac)))
        worst = max(worst, float((np.abs(emp - hac) / denom).max()))
    ok = worst <= 0.03
    passed = _verdict(
        4,
        ok,
        f"bootstrap covariance matches kernel quadratic form within 3% "
        f"(worst entrywise error {100 * worst:.2f}% on the correlation scale, "
        f"B={B}, 20 series)",
    )
    assert passed


def test_criterion_5_brute_force_hac_equivalence():
    worst = 0.0
    g = RngStream(1505).generator()
    for s in range(100):
        T = int(g.integers(20, 61))
        x = g.standard_normal(T)
        if s % 2:
            x = np.cumsum(x) / np.sqrt(np.arange(1, T + 1))
        k_T = float(g.uniform(0.5, 6.0))
        d = 3
        est = estimate_second_order(x, d, 2)
        H = (0, 1, 3)
        I = (1, 2)
        lin = linearization_matrix(est.sigma_hat[:3], 2)
        pairs = (
            (hac_autocov_cov(x, est, H, k_T),
             brute_kernel_double_sum(brute_residual_rows(x, est.sigma_hat, H), gaussian_K, k_T)),
            (hac_autocorr_cov(x, est, I, k_T),
             brute_kernel_double_sum(brute_autocorr_rows(x, est.sigma_hat, I), gaussian_K, k_T)),
            (hac_arcoef_cov(x, est, 2, k_T),
             brute_kernel_double_sum(brute_arcoef_rows(x, est.sigma_hat, lin, 2), gaussian_K, k_T)),
        )
        for got, want in pairs:
            scale = max(float(np.abs(want).max()), 1e-12)
            worst = max(worst, float(np.abs(got - want).max()) / scale)
    ok = worst <= 1e-10
    passed = _verdict(
        5, ok, f"all three estimators match the O(T^2) double loop (worst {worst:.2e} relative)"
    )
    assert passed


def test_criterion_6_gaussian_max_oracle_calibration():
    q1 = gaussian_max_quantile(np.array([[1.0]]), 0.05, 10**6, RngStream(1606, 1))
    q2 = gaussian_max_quantile(np.eye(2), 0.05, 10**6, RngStream(1606, 2))
    target1 = float(scipy.stats.norm.ppf(0.975))
    target2 = float(scipy.stats.norm.ppf((1.0 + np.sqrt(0.95)) / 2.0))
    ok = abs(q1 - target1) <= 0.01 and abs(q2 - target2) <= 0.01
    passed = _verdict(
        6,
        ok,
        f"oracle quantiles {q1:.4f} vs {target1:.4f} and {q2:.4f} vs {target2:.4f} at 1e6 draws",
    )
    assert passed


def test_criterion_7_gaussian_approximation_validated():
    # a single 2000-rep run puts both distances near the two-sample KS noise
    # floor, so the T-trend is compared on the three-seed average (the
    # stated protocol for the trend check); the absolute bound applies to
    # every T=2000 run
    spec = DgpSpec("ar1", "independent", T=2000, rho=0.7, seed=ACCEPTANCE_SEED)
    ks = {200: [], 2000: []}
    for seed in (0, 1, 2):
        for T in (200, 2000):
            ks[T].append(
                gaussian_approx_check(spec, T=T, reps=2000, stream=RngStream(seed)).ks_distance
            )
    mean200 = float(np.mean(ks[200]))
    mean2000 = float(np.mean(ks[2000]))
    ok = all(v < 0.08 for v in ks[2000]) and mean2000 <= mean200
    passed = _verdict(
        7,
        ok,
        f"KS distance < 0.08 at T=2000 (runs {[round(v, 4) for v in ks[2000]]}) and "
        f"3-seed mean nonincreasing in T ({mean2000:.4f} at T=2000 vs {mean200:.4f} at T=200)",
    )
    assert passed


def test_criterion_8_test_size_on_white_noise():
    sims, T, B = 1000, 500, 499
    rho_null = np.zeros(4)

    def _one(s):
        x = gen_innovations("independent", T, RngStream(derive_seed(1808, (s,)), 0))
        cfg = BootstrapConfig(
            d=7, p=1, H=(0, 1, 2, 3), I=(1, 2, 3, 4),
            bandwidth=BandwidthRule.auto(), B=B, alpha=0.05,
            seed=derive_seed(1809, (s,)),
        )
        report, draws = run_bootstrap(x, cfg)
        return hypothesis_tests(report, draws, rho_e=rho_null)[TARGET_AUTOCORR].reject

    with ThreadPoolExecutor(max_workers=2) as pool:
        rejections = sum(pool.map(_one, range(sims)))
    rate = rejections / sims
    ok = 0.03 <= rate <= 0.07
    passed = _verdict(
        8, ok, f"zero-autocorrelation test rejects {100 * rate:.1f}% of {sims} white-noise samples"
    )
    assert passed


def test_criterion_9_byte_identical_reruns(tmp_path):
    series = tmp_path / "series.csv"
    assert cli_main(["simulate", "--model", "ar2", "--innovation", "product",
                     "--T", "500", "--seed", "77", "--out", str(series)]) == 0

    out1, out3, outr = (tmp_path / n for n in ("t1", "t3", "replay"))
    base = ["analyze", str(series), "--B", "400", "--seed", "5"]
    assert cli_main(base + ["--out", str(out1), "--threads", "1"]) == 0
    assert cli_main(base + ["--out", str(out3), "--threads", "3"]) == 0
    analyze_ok = (out1 / "report.json").read_bytes() == (out3 / "report.json").read_bytes()
    assert cli_main(["--replay", str(out1 / "manifest.json"), "--out", str(outr)]) == 0
    replay_ok = (out1 / "report.json").read_bytes() == (outr / "report.json").read_bytes()

    cov1, cov2 = tmp_path / "c1", tmp_path / "c2"
    cov_args = ["coverage", "--scenario", "ma3:independent", "--T", "250",
                "--reps", "100", "--seed", "11"]
    assert cli_main(cov_args + ["--out", str(cov1), "--threads", "1"]) == 0
    assert cli_main(cov_args + ["--out", str(cov2), "--threads", "2"]) == 0
    coverage_ok = (
        (cov1 / "coverage.csv").read_bytes() == (cov2 / "coverage.csv").read_bytes()
        and (cov1 / "coverage.json").read_bytes() == (cov2 / "coverage.json").read_bytes()
    )
    ok = analyze_ok and replay_ok and coverage_ok
    passed = _verdict(
        9,
        ok,
        f"byte-identical outputs (analyze threads {analyze_ok}, replay {replay_ok}, "
        f"coverage threads {coverage_ok})",
    )
    assert passed
