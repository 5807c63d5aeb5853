import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secondwild.bootstrap as bootstrap_mod
from conftest import reference_bootstrap_replicate, reference_pinv_yule_walker
from secondwild.bootstrap import (
    BootstrapConfig,
    BootstrapDraws,
    _pinv_yule_walker,
    hypothesis_tests,
    multiplier_factor,
    run_bootstrap,
    run_plugin,
)
from secondwild.errors import DegenerateVarianceError, NumericalError
from secondwild.hac import TARGET_ARCOEF, TARGET_AUTOCORR, TARGET_AUTOCOV, hac_autocov_cov
from secondwild.kernels import BandwidthRule, select_bandwidth
from secondwild.rng import RngStream, derive_seed
from secondwild.series import SecondOrderEstimates, estimate_second_order, second_order_residual_matrix

CFG = dict(d=7, p=1, H=(0, 1, 2, 3), I=(1, 2, 3, 4))


def _series(seed, T=256):
    return RngStream(seed).generator().standard_normal(T)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(d=3, p=4, H=(0,), I=(1,))
        with pytest.raises(ValueError, match="H"):
            BootstrapConfig(d=3, p=1, H=(), I=(1,))
        with pytest.raises(ValueError, match="I"):
            BootstrapConfig(d=3, p=1, H=(0,), I=(0,))
        with pytest.raises(ValueError):
            BootstrapConfig(d=3, p=1, H=(0,), I=(1,), alpha=1.0)
        with pytest.raises(ValueError):
            BootstrapConfig(d=3, p=1, H=(0,), I=(1,), B=0)

    def test_sets_sorted_and_deduplicated(self):
        cfg = BootstrapConfig(d=5, p=2, H=(3, 0, 3), I=(4, 1))
        assert cfg.H == (0, 3)
        assert cfg.I == (1, 4)


class TestResiduals:
    def test_hand_example(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        est = estimate_second_order(x, 1, 1)
        rows = second_order_residual_matrix(x, est.sigma_hat, 1)
        assert est.sigma_hat[1] == pytest.approx(5.0)
        assert rows[1, 1:] == pytest.approx([-3.0, 1.0, 7.0])

    def test_zero_series_rows(self):
        from test_hac import _zero_estimates

        rows = second_order_residual_matrix(np.zeros(10), _zero_estimates(10, 2).sigma_hat, 2)
        assert np.all(rows == 0.0)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_row_sum_identity(self, seed):
        # sum of row j equals j * sigma_hat_j (step-1 algebra)
        g = RngStream(derive_seed(97, (seed,))).generator()
        T = int(g.integers(5, 60))
        x = g.standard_normal(T)
        d = int(g.integers(1, min(T - 1, 7) + 1))
        est = estimate_second_order(x, d, 1)
        rows = second_order_residual_matrix(x, est.sigma_hat, d)
        for j in range(d + 1):
            expected = j * est.sigma_hat[j]
            scale = max(1.0, abs(est.sigma_hat[j]) * T)
            assert abs(rows[j, j:].sum() - expected) <= 1e-12 * scale


class TestReplicate:
    def test_zero_multipliers_reproduce_estimates(self):
        x = _series(1)
        est = estimate_second_order(x, 7, 2, CFG["H"], CFG["I"])
        rows = second_order_residual_matrix(x, est.sigma_hat, 7)
        sigma_star, rho_star, a_star = reference_bootstrap_replicate(est, rows, np.zeros(len(x)), 2, CFG["I"])
        assert sigma_star == pytest.approx(est.sigma_hat, rel=0, abs=0)
        assert rho_star == pytest.approx(est.rho_hat[list(CFG["I"])])
        assert a_star == pytest.approx(est.a_hat, rel=1e-12)

    def test_hand_example(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        est = estimate_second_order(x, 1, 1)
        rows = second_order_residual_matrix(x, est.sigma_hat, 1)
        sigma_star, _, _ = reference_bootstrap_replicate(est, rows, np.ones(4), 1, (1,))
        assert sigma_star[1] == pytest.approx(6.25)

    def test_affine_in_multipliers(self):
        x = _series(2)
        est = estimate_second_order(x, 5, 1, (0, 1, 2), (1, 2))
        rows = second_order_residual_matrix(x, est.sigma_hat, 5)
        eps = RngStream(3).generator().standard_normal(len(x))
        s1, _, _ = reference_bootstrap_replicate(est, rows, eps, 1, (1, 2))
        s2, _, _ = reference_bootstrap_replicate(est, rows, 2.0 * eps, 1, (1, 2))
        assert s2 - est.sigma_hat == pytest.approx(2.0 * (s1 - est.sigma_hat), rel=1e-12)

    def test_degenerate_sigma0_raises(self):
        T = 4
        est = SecondOrderEstimates(
            sigma_hat=np.array([1.0, 0.5]),
            rho_hat=np.array([1.0, 0.5]),
            a_hat=np.array([0.5]),
            T=T, d=1, p=1, H=(0, 1), I=(1,),
        )
        rows = np.zeros((2, T))
        rows[0] = [float(T), 0.0, 0.0, 0.0]
        with pytest.raises(DegenerateVarianceError):
            reference_bootstrap_replicate(est, rows, np.array([-1.0, 0.0, 0.0, 0.0]), 1, (1,))


class TestStackedYuleWalker:
    @pytest.mark.parametrize("p", range(1, 8))
    def test_rows_equal_single_solves(self, p):
        S = RngStream(71, p).generator().standard_normal((300, 8))
        S[:, 0] = np.abs(S[:, 0]) + 1.0
        S[:40, 0] *= -1.0  # sigma*_0 < 0
        S[40:50] = 1.0  # all-ones Toeplitz, rank 1
        S[50:55] = 0.0
        S[55:60, 1:] = S[55:60, :1]  # rank 1 again, from varying scales
        stacked = _pinv_yule_walker(S, p)
        assert stacked.shape == (300, p)
        for row, a in zip(S, stacked):
            assert np.array_equal(a, reference_pinv_yule_walker(row, p))
            assert np.array_equal(_pinv_yule_walker(row, p), a)


class TestRunBootstrap:
    def test_zero_override_collapses_bands(self, monkeypatch):
        x = _series(5)
        cfg = BootstrapConfig(B=1, seed=1, bandwidth=BandwidthRule.fixed(4.0), **CFG)
        monkeypatch.setattr(bootstrap_mod, "_gaussian_multipliers", lambda factor, seed, b: np.zeros(factor.dim))
        report, draws = run_bootstrap(x, cfg)
        assert all(r == 0.0 for r in report.radii.values())
        for band in report.bands.values():
            assert band.lower == pytest.approx(band.estimate)
            assert band.upper == pytest.approx(band.estimate)
        assert np.all(draws.delta_sigma == 0.0)

    def test_rerun_deterministic(self):
        x = _series(6)
        cfg = BootstrapConfig(B=300, seed=9, **CFG)
        r1, d1 = run_bootstrap(x, cfg)
        r2, d2 = run_bootstrap(x, cfg)
        assert r1.to_dict() == r2.to_dict()
        assert np.array_equal(d1.delta_a, d2.delta_a)
        assert np.array_equal(d1.delta_rho, d2.delta_rho)
        assert np.array_equal(d1.delta_sigma, d2.delta_sigma)

    def test_radii_monotone_in_alpha(self):
        x = _series(7)
        r10, _ = run_bootstrap(x, BootstrapConfig(B=400, seed=4, alpha=0.10, **CFG))
        r05, _ = run_bootstrap(x, BootstrapConfig(B=400, seed=4, alpha=0.05, **CFG))
        for t in r10.radii:
            assert r10.radii[t] <= r05.radii[t]

    def test_degenerate_replicate_redrawn_then_fatal(self, monkeypatch):
        x = _series(8, T=64)
        est = estimate_second_order(x, 2, 1, (0, 1), (1,))
        sigma0 = est.sigma_hat[0]
        rows = second_order_residual_matrix(x, est.sigma_hat, 2)
        # craft a multiplier vector whose delta cancels sigma_hat_0 exactly
        row0 = rows[0]
        bad = np.zeros(64)
        bad[0] = -sigma0 * 64.0 / row0[0]
        assert sigma0 + row0 @ bad / 64.0 == 0.0
        cfg = BootstrapConfig(d=2, p=1, H=(0, 1), I=(1,), B=1, seed=1, bandwidth=BandwidthRule.fixed(2.0))
        monkeypatch.setattr(
            bootstrap_mod, "_gaussian_multipliers", lambda factor, seed, b: bad if b == 1 else np.zeros(factor.dim)
        )
        report, _ = run_bootstrap(x, cfg)
        assert report.provenance["degenerate_resamples"] == 1
        monkeypatch.setattr(bootstrap_mod, "_gaussian_multipliers", lambda factor, seed, b: bad)
        with pytest.raises(NumericalError):
            run_bootstrap(x, cfg)

    def test_conditional_covariance_smoke(self):
        # the bootstrap covariance of sqrt(T) sigma* equals the kernel
        # quadratic form by construction; checked loosely here, tightly in
        # the acceptance suite
        T, B = 128, 4000
        x = _series(10, T=T)
        est = estimate_second_order(x, 3, 1, (0, 1, 2, 3), (1,))
        rows = second_order_residual_matrix(x, est.sigma_hat, 3)
        k_T = select_bandwidth(x, BandwidthRule.auto())
        fac = multiplier_factor(T, k_T)
        acc = np.zeros((4, 4))
        for b in range(1, B + 1):
            eps = fac.L @ RngStream(77, b).generator().standard_normal(T)
            delta = rows @ eps / T
            acc += np.outer(delta, delta)
        emp = acc * T / B
        hac = hac_autocov_cov(x, est, (0, 1, 2, 3), k_T)
        denom = np.sqrt(np.outer(np.diag(hac), np.diag(hac)))
        assert np.abs(emp - hac).max() / denom.max() <= 0.1

    def test_draws_validation(self):
        with pytest.raises(ValueError):
            BootstrapDraws(
                delta_sigma=np.array([-1.0]),
                delta_rho=np.array([0.0]),
                delta_a=np.array([0.0]),
            )


class TestHypothesisTests:
    def _report(self, seed=11):
        x = _series(seed)
        cfg = BootstrapConfig(B=500, seed=2, **CFG)
        return run_bootstrap(x, cfg)

    def test_point_estimates_never_rejected(self):
        report, draws = self._report()
        est = report.estimates
        res = hypothesis_tests(
            report,
            draws,
            sigma_e=est.sigma_hat[list(est.H)],
            rho_e=est.rho_hat[list(est.I)],
            a_e=est.a_hat,
        )
        for r in res.values():
            assert r.statistic == 0.0
            assert not r.reject
            assert r.p_value == 1.0

    def test_distant_null_rejected(self):
        report, draws = self._report()
        res = hypothesis_tests(report, draws, sigma_e=np.full(4, 1e6))
        assert res[TARGET_AUTOCOV].reject
        assert res[TARGET_AUTOCOV].p_value == 0.0

    def test_dimension_mismatch(self):
        report, draws = self._report()
        with pytest.raises(ValueError, match="shape"):
            hypothesis_tests(report, draws, rho_e=np.zeros(3))
        with pytest.raises(ValueError, match="no hypothesized"):
            hypothesis_tests(report, draws)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_null_rejected(self, bad):
        report, draws = self._report()
        null = np.zeros(4)
        null[0] = bad
        with pytest.raises(ValueError, match="autocovariance values must be finite"):
            hypothesis_tests(report, draws, sigma_e=null)

    @pytest.mark.parametrize("bad", [{"a": 1}, "zero", [0.0, "x", 0.0, 0.0]])
    def test_non_numeric_null_rejected(self, bad):
        report, draws = self._report()
        with pytest.raises(ValueError, match="autocorrelation values must be numbers"):
            hypothesis_tests(report, draws, rho_e=bad)

    def test_results_attached_to_report(self):
        report, draws = self._report()
        hypothesis_tests(report, draws, a_e=np.zeros(report.estimates.p))
        assert TARGET_ARCOEF in report.to_dict()["tests"]


class TestPlugin:
    def test_plugin_report_shape_and_determinism(self):
        x = _series(12)
        cfg = BootstrapConfig(B=10, seed=21, **CFG)
        r1 = run_plugin(x, cfg, n_mc=20_000)
        r2 = run_plugin(x, cfg, n_mc=20_000)
        assert r1.method == "gaussian_plugin"
        assert r1.to_dict() == r2.to_dict()
        for band in r1.bands.values():
            assert np.all(band.lower <= band.estimate)
            assert np.all(band.estimate <= band.upper)

    def test_plugin_and_bootstrap_radii_same_scale(self):
        # both approximate the same limiting quantiles
        x = _series(13, T=600)
        cfg = BootstrapConfig(B=1500, seed=3, **CFG)
        boot, _ = run_bootstrap(x, cfg)
        plug = run_plugin(x, cfg, n_mc=100_000)
        for t in (TARGET_AUTOCOV, TARGET_AUTOCORR, TARGET_ARCOEF):
            assert plug.radii[t] == pytest.approx(boot.radii[t], rel=0.25)
