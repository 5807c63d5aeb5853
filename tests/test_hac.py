import sys

import numpy as np
import pytest

from conftest import (
    brute_arcoef_rows,
    brute_autocorr_rows,
    brute_kernel_double_sum,
    brute_residual_rows,
    gaussian_K,
)
from secondwild import hac
from secondwild.bootstrap import BootstrapConfig, run_plugin
from secondwild.errors import DegenerateVarianceError
from secondwild.hac import hac_arcoef_cov, hac_autocorr_cov, hac_autocov_cov
from secondwild.kernels import BandwidthRule, select_bandwidth
from secondwild.rng import RngStream, derive_seed
from secondwild.series import (
    autocov_vector,
    estimate_second_order,
    linearization_matrix,
    second_order_residual_matrix,
)


def _resid(x, est):
    """The residual matrix over lags 0..d that the estimators read."""
    return second_order_residual_matrix(x, est.sigma_hat, est.d)


def _zero_resid(T, d):
    """Residual matrix of the identically-zero series (the estimator
    constructor rejects its degenerate variance)."""
    return second_order_residual_matrix(np.zeros(T), np.zeros(d + 1), d)


def _random_instance(seed, T_max=60):
    g = RngStream(seed).generator()
    T = int(g.integers(10, T_max + 1))
    x = g.standard_normal(T)
    if g.uniform() < 0.5:  # mix in some dependence
        x = np.cumsum(x) / np.sqrt(np.arange(1, T + 1))
    k_T = float(g.uniform(0.5, 8.0))
    return x, k_T


class TestResidualInput:
    """The three estimators read one residual matrix, built once per plug-in run."""

    def test_run_plugin_builds_residuals_once(self, monkeypatch):
        original = second_order_residual_matrix
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("secondwild") and vars(module).get("second_order_residual_matrix") is original:
                monkeypatch.setattr(module, "second_order_residual_matrix", counting)
        x = RngStream(83).generator().standard_normal(300)
        run_plugin(x, BootstrapConfig(d=5, p=3, H=(0, 2), I=(1, 4), B=1, seed=1), n_mc=1000)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_beyond_largest_lag_change_no_bit(self, seed):
        g = RngStream(derive_seed(89, (seed,))).generator()
        T = int(g.integers(50, 3001))
        x = np.cumsum(g.standard_normal(T)) / np.sqrt(np.arange(1, T + 1))
        d = 7
        sigma = autocov_vector(x, d)
        R = second_order_residual_matrix(x, sigma, d)
        k_T = float(g.uniform(0.5, 20.0))

        def own(top):
            return second_order_residual_matrix(x, sigma, top)

        assert np.array_equal(hac_autocov_cov(R, (0, 2, 4), k_T), hac_autocov_cov(own(4), (0, 2, 4), k_T))
        assert np.array_equal(hac_autocorr_cov(R, sigma, (1, 3), k_T), hac_autocorr_cov(own(3), sigma, (1, 3), k_T))
        for p in (1, 3):
            assert np.array_equal(hac_arcoef_cov(R, sigma, p, k_T), hac_arcoef_cov(own(p), sigma, p, k_T))


class TestAutocovCov:
    def test_zero_series(self):
        cov = hac_autocov_cov(_zero_resid(20, 3), (0, 1, 2), 2.0)
        assert np.all(cov == 0.0)

    def test_small_instance_matches_brute_force(self):
        x = np.array([1.0, -1.0, 2.0])
        est = estimate_second_order(x, 1, 1)
        cov = hac_autocov_cov(_resid(x, est), (0,), 1.0)
        rows = brute_residual_rows(x, est.sigma_hat, [0])
        brute = brute_kernel_double_sum(rows, gaussian_K, 1.0)
        assert cov == pytest.approx(brute, rel=1e-12)

    def test_iid_variance_calibration(self):
        # entry (0,0) estimates the long-run variance of sqrt(T) sigma_hat_0,
        # which is Var(X^2) = 2 for standard normal data
        vals = []
        for s in range(100):
            x = RngStream(derive_seed(53, (s,))).generator().standard_normal(20_000)
            est = estimate_second_order(x, 1, 1)
            k_T = select_bandwidth(x, BandwidthRule.auto())
            vals.append(hac_autocov_cov(_resid(x, est), (0,), k_T)[0, 0])
        assert np.mean(vals) == pytest.approx(2.0, abs=0.3)

    def test_empty_lag_set_rejected(self):
        x = RngStream(1).generator().standard_normal(30)
        est = estimate_second_order(x, 3, 1)
        with pytest.raises(ValueError):
            hac_autocov_cov(_resid(x, est), (), 1.0)

    def test_permutation_equivariance(self):
        x = RngStream(59).generator().standard_normal(40)
        est = estimate_second_order(x, 5, 1)
        a = hac_autocov_cov(_resid(x, est), (0, 2, 5), 2.0)
        b = hac_autocov_cov(_resid(x, est), (5, 0, 2), 2.0)
        assert np.array_equal(a, b)
        # rows and columns follow the sorted lags (0, 2, 5)
        for pos, lag in enumerate((0, 2, 5)):
            assert a[pos, pos] == pytest.approx(hac_autocov_cov(_resid(x, est), (lag,), 2.0)[0, 0], rel=1e-12)

    def test_window_truncation_error_negligible(self, monkeypatch):
        for s in range(5):
            g = RngStream(derive_seed(61, (s,))).generator()
            T = int(g.integers(100, 501))
            x = g.standard_normal(T)
            est = estimate_second_order(x, 4, 1)
            k_T = float(g.uniform(1.0, 20.0))
            trunc = hac_autocov_cov(_resid(x, est), (0, 1, 4), k_T)
            with monkeypatch.context() as m:
                m.setattr(hac, "_WINDOW_CUTOFF", 0.0)
                full = hac_autocov_cov(_resid(x, est), (0, 1, 4), k_T)
            assert np.abs(trunc - full).max() <= 1e-8


class TestAutocorrCov:
    def test_constant_series_residuals_nearly_vanish(self):
        # For x = c the truncated-sum sigma_hat_j = c^2 (T-j)/T varies with
        # the lag, so the studentized residuals are j/T rather than exactly
        # zero; the matrix entries are O((d/T)^2 * window), tiny but nonzero.
        x = np.full(25, 3.0)
        est = estimate_second_order(x, 2, 1)
        cov = hac_autocorr_cov(_resid(x, est), est.sigma_hat, (1, 2), 2.0)
        assert np.abs(cov).max() <= 0.05
        rows = brute_autocorr_rows(x, est.sigma_hat, [1, 2])
        for j, row in zip((1, 2), rows):
            defined = row[j:]
            assert defined == pytest.approx(np.full(defined.size, j / 25.0), rel=1e-10)

    def test_small_instance_matches_brute_force(self):
        x = np.array([0.5, -1.5, 2.0, 1.0])
        est = estimate_second_order(x, 2, 1)
        cov = hac_autocorr_cov(_resid(x, est), est.sigma_hat, (1, 2), 1.5)
        rows = brute_autocorr_rows(x, est.sigma_hat, [1, 2])
        brute = brute_kernel_double_sum(rows, gaussian_K, 1.5)
        assert cov == pytest.approx(brute, rel=1e-11)

    def test_iid_long_run_variance_of_rho1(self):
        x = RngStream(67).generator().standard_normal(20_000)
        est = estimate_second_order(x, 1, 1)
        k_T = select_bandwidth(x, BandwidthRule.auto())
        cov = hac_autocorr_cov(_resid(x, est), est.sigma_hat, (1,), k_T)
        assert cov[0, 0] == pytest.approx(1.0, abs=0.2)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            hac_autocorr_cov(_zero_resid(4, 1), np.array([0.0, 0.0]), (1,), 1.0)


class TestArcoefCov:
    def test_zero_series(self):
        cov = hac_arcoef_cov(_zero_resid(12, 2), np.zeros(3), 1, 1.0)
        assert np.abs(cov).max() <= 1e-12

    def test_small_instance_matches_brute_force(self):
        x = np.array([1.0, -2.0, 0.5, 1.5, -0.5])
        est = estimate_second_order(x, 1, 1)
        cov = hac_arcoef_cov(_resid(x, est), est.sigma_hat, 1, 2.0)
        lin = linearization_matrix(est.sigma_hat[:2], 1)
        rows = brute_arcoef_rows(x, est.sigma_hat, lin, 1)
        brute = brute_kernel_double_sum(rows, gaussian_K, 2.0)
        assert cov == pytest.approx(brute, rel=1e-11)

    def test_matches_autocorr_route_when_sigma0_is_one(self):
        g = RngStream(71).generator()
        x = g.standard_normal(120)
        x = x / np.sqrt(autocov_vector(x, 0)[0])
        est = estimate_second_order(x, 2, 1)
        assert est.sigma_hat[0] == pytest.approx(1.0, abs=1e-12)
        a = hac_arcoef_cov(_resid(x, est), est.sigma_hat, 1, 3.0)
        b = hac_autocorr_cov(_resid(x, est), est.sigma_hat, (1,), 3.0)
        assert abs(a[0, 0] - b[0, 0]) <= 1e-10


class TestBruteForceSweep:
    def test_all_estimators_match_double_loop(self):
        # moderate sweep; the acceptance suite runs the full 100-instance one
        for s in range(12):
            x, k_T = _random_instance(derive_seed(73, (s,)), T_max=40)
            d = 3
            est = estimate_second_order(x, d, 2)
            H = (0, 1, 3)
            I = (1, 2)
            got = hac_autocov_cov(_resid(x, est), H, k_T)
            want = brute_kernel_double_sum(brute_residual_rows(x, est.sigma_hat, H), gaussian_K, k_T)
            scale = max(np.abs(want).max(), 1e-12)
            assert np.abs(got - want).max() <= 1e-10 * scale
            got = hac_autocorr_cov(_resid(x, est), est.sigma_hat, I, k_T)
            want = brute_kernel_double_sum(brute_autocorr_rows(x, est.sigma_hat, I), gaussian_K, k_T)
            scale = max(np.abs(want).max(), 1e-12)
            assert np.abs(got - want).max() <= 1e-10 * scale
            lin = linearization_matrix(est.sigma_hat[:3], 2)
            got = hac_arcoef_cov(_resid(x, est), est.sigma_hat, 2, k_T)
            want = brute_kernel_double_sum(brute_arcoef_rows(x, est.sigma_hat, lin, 2), gaussian_K, k_T)
            scale = max(np.abs(want).max(), 1e-12)
            assert np.abs(got - want).max() <= 1e-10 * scale


class TestBlockSeams:
    """The blocked convolution matches the double loop across block seams.

    The acceptance instances are shorter than one block, so here the block
    length is shrunk until every instance spans several seams.
    """

    @pytest.mark.parametrize("block", [5, 17])
    def test_all_estimators_match_double_loop(self, monkeypatch, block):
        monkeypatch.setattr(hac, "_BLOCK", block)
        g = RngStream(derive_seed(79, (block,))).generator()
        # (T, k_T, _WINDOW_CUTOFF): an ordinary window, a window that the
        # T - 1 cap truncates, and the untruncated cutoff-0 window.
        cases = ((int(g.integers(100, 201)), 4.5, 1e-12), (110, 30.0, 1e-12), (130, 2.5, 0.0))
        for T, k_T, cutoff in cases:
            monkeypatch.setattr(hac, "_WINDOW_CUTOFF", cutoff)
            x = g.standard_normal(T)
            est = estimate_second_order(x, 3, 2)
            R = _resid(x, est)
            H = (0, 1, 3)
            I = (1, 2)
            lin = linearization_matrix(est.sigma_hat[:3], 2)
            pairs = (
                (hac_autocov_cov(R, H, k_T),
                 brute_residual_rows(x, est.sigma_hat, H)),
                (hac_autocorr_cov(R, est.sigma_hat, I, k_T),
                 brute_autocorr_rows(x, est.sigma_hat, I)),
                (hac_arcoef_cov(R, est.sigma_hat, 2, k_T),
                 brute_arcoef_rows(x, est.sigma_hat, lin, 2)),
            )
            for got, rows in pairs:
                want = brute_kernel_double_sum(rows, gaussian_K, k_T)
                scale = max(np.abs(want).max(), 1e-12)
                assert np.abs(got - want).max() <= 1e-10 * scale
