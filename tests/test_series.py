import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_autocov, brute_residual_rows
from secondwild.bootstrap import BootstrapConfig, run_bootstrap, run_plugin
from secondwild.errors import DegenerateVarianceError
from secondwild.hac import hac_arcoef_cov, hac_autocorr_cov, hac_autocov_cov
from secondwild.kernels import BandwidthRule, select_bandwidth
from secondwild.rng import RngStream, derive_seed
from secondwild.series import (
    _estimates_from_autocov,
    ar_order_select_aic,
    autocov_vector,
    estimate_second_order,
    linearization_matrix,
    second_order_residual_matrix,
    yule_walker_fit,
)
from secondwild.sieve import SieveConfig, ar_sieve_bootstrap

finite_series = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=2, max_size=40
)

_RO_CFG = BootstrapConfig(d=4, p=2, H=(0, 1, 2), I=(1, 2), B=50, seed=1)
_RO_CALLS = {
    "estimate_second_order": lambda x, est, k_T: estimate_second_order(x, 4, 2),
    "select_bandwidth": lambda x, est, k_T: select_bandwidth(x, BandwidthRule.auto()),
    "second_order_residual_matrix": lambda x, est, k_T: second_order_residual_matrix(x, est.sigma_hat, 4),
    "hac_autocov_cov": lambda x, est, k_T: hac_autocov_cov(x, est, (0, 1, 2), k_T),
    "hac_autocorr_cov": lambda x, est, k_T: hac_autocorr_cov(x, est, (1, 2), k_T),
    "hac_arcoef_cov": lambda x, est, k_T: hac_arcoef_cov(x, est, 2, k_T),
    "run_bootstrap": lambda x, est, k_T: run_bootstrap(x, _RO_CFG),
    "run_plugin": lambda x, est, k_T: run_plugin(x, _RO_CFG, n_mc=1000),
    "ar_sieve_bootstrap": lambda x, est, k_T: ar_sieve_bootstrap(
        x, 4, 2, (0, 1, 2), (1, 2), SieveConfig(p_max=4, B=50, seed=1)
    ),
}


class TestTimeSeries:
    """A series is a plain 1-D float array, validated and never copied."""

    def test_validates_length(self):
        with pytest.raises(ValueError, match="at least 2"):
            autocov_vector(np.array([1.0]), 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite value at position 1"):
            autocov_vector(np.array([1.0, np.nan, 2.0]), 1)

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            autocov_vector(np.ones((3, 2)), 1)

    @pytest.mark.parametrize("name", list(_RO_CALLS))
    def test_read_only_input_not_written(self, name):
        x = RngStream(43).generator().standard_normal(300)
        x.setflags(write=False)
        before = x.tobytes()
        est = estimate_second_order(x, 4, 2)
        k_T = select_bandwidth(x, BandwidthRule.auto())
        _RO_CALLS[name](x, est, k_T)
        assert x.tobytes() == before


class TestSampleAutocov:
    def test_hand_example(self):
        assert autocov_vector([1, 2, 3, 4], 1)[1] == pytest.approx(5.0)

    def test_zero_series(self):
        assert np.all(autocov_vector([0, 0, 0, 0, 0], 3) == 0.0)

    def test_lag_zero_mean_square(self):
        assert autocov_vector([1, -1, 1, -1], 0)[0] == pytest.approx(1.0)

    def test_lag_out_of_range_names_lag(self):
        with pytest.raises(ValueError, match="lag 4"):
            autocov_vector([1, 2, 3, 4], 4)
        with pytest.raises(ValueError, match="lag -1"):
            autocov_vector([1, 2, 3, 4], -1)

    @given(finite_series, st.integers(min_value=0, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, data, j):
        if j >= len(data):
            j = len(data) - 1
        fast = autocov_vector(data, j)
        for k in range(j + 1):
            assert fast[k] == pytest.approx(brute_autocov(data, k), rel=1e-12, abs=1e-12)


class TestSampleAutocorr:
    def test_hand_example(self):
        assert estimate_second_order([1, -1, 1, -1], 1, 1).rho_hat[1] == pytest.approx(-0.75)

    def test_lag_zero_is_one(self):
        assert estimate_second_order([0.3, 1.2, -0.7], 1, 1).rho_hat[0] == 1.0

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            estimate_second_order([0.0, 0.0, 0.0], 1, 1)

    def test_ar1_large_sample(self):
        from secondwild.dgp import DgpSpec, gen_series

        x = gen_series(DgpSpec("ar1", "independent", T=10**5, rho=0.7, seed=101))
        assert estimate_second_order(x, 1, 1).rho_hat[1] == pytest.approx(0.70, abs=0.01)

    @given(finite_series, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_one(self, data, j):
        j = min(j, len(data) - 1)
        arr = np.asarray(data)
        if autocov_vector(arr, 0)[0] == 0.0:
            return
        assert np.abs(estimate_second_order(arr, j, 1).rho_hat).max() <= 1.0 + 1e-12


class TestYuleWalker:
    def test_order_one(self):
        a = yule_walker_fit([1.0, 0.7], 1)
        assert a == pytest.approx([0.7])

    def test_order_two_hand_solve(self):
        a = yule_walker_fit([1.0, 0.5, 0.25], 2)
        assert a == pytest.approx([0.5, 0.0], abs=1e-12)

    def test_white_noise(self):
        a = yule_walker_fit([1.0, 0.0, 0.0], 2)
        assert a == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_rank_deficient_falls_back_to_pinv(self):
        a = yule_walker_fit([0.0, 0.0], 1)
        assert a == pytest.approx([0.0])

    def test_used_pinv_on_rank_deficient_toeplitz(self):
        # sigma = (1, 1, 1) at p = 2 gives the all-ones (rank 1) Toeplitz matrix
        est = _estimates_from_autocov(np.ones(3), 100, 2, (0, 1, 2), (1, 2))
        assert est.used_pinv
        assert est.a_hat == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize(
        "x",
        [np.ones(1000), (-1.0) ** np.arange(1000), np.sin(0.3 * np.arange(1000))],
        ids=["constant", "alternating", "sinusoid"],
    )
    def test_used_pinv_false_on_extreme_series(self, x):
        assert not estimate_second_order(x, 7, 7).used_pinv

    @pytest.mark.filterwarnings("error")
    def test_subnormal_autocovariances_give_finite_coefficients(self):
        # autocovariances near 1e-320 are subnormal; Yule-Walker is scale-invariant,
        # so a_hat matches the unit-scale series up to the subnormals' lost precision
        x = np.array([1.0, 2.0, -1.0, 3.0, 0.5])
        tiny = estimate_second_order(x * 1e-160, 3, 2).a_hat
        assert np.all(np.isfinite(tiny))
        assert tiny == pytest.approx(estimate_second_order(x, 3, 2).a_hat, rel=1e-3)
        stack = yule_walker_fit(np.array([[1e-320, 5e-321, 0.0], [1.0, 0.5, 0.0]]), 2)
        assert stack[0] == pytest.approx(stack[1], rel=1e-3)

    def test_residual_bound_well_conditioned(self):
        g = RngStream(7).generator()
        for _ in range(50):
            p = int(g.integers(1, 11))
            # autocovariances of a random stable AR yield well-conditioned systems
            from secondwild.dgp import ar_autocovariances

            coef = g.uniform(-0.4, 0.4, size=p) / max(1, p)
            sigma = ar_autocovariances(coef, 1.0, p)
            a = yule_walker_fit(sigma, p)
            gamma = sigma[1 : p + 1]
            resid = scipy.linalg.toeplitz(sigma[:p]) @ a - gamma
            assert np.abs(resid).max() <= 1e-10 * max(1.0, np.abs(gamma).max())

    def test_agrees_with_dense_solve_on_random_instances(self):
        g = RngStream(11).generator()
        for _ in range(1000):
            p = int(g.integers(1, 11))
            from secondwild.dgp import ar_autocovariances

            coef = g.uniform(-0.5, 0.5, size=p) / max(1, p)
            sigma = ar_autocovariances(coef, float(g.uniform(0.5, 2.0)), p)
            a = yule_walker_fit(sigma, p)
            dense = np.linalg.solve(scipy.linalg.toeplitz(sigma[:p]), sigma[1 : p + 1])
            assert np.abs(a - dense).max() <= 1e-8 * max(1.0, np.abs(dense).max())


class TestOrderSelection:
    def test_single_candidate(self):
        x = RngStream(3).generator().standard_normal(100)
        assert ar_order_select_aic(x, 0) == 0

    def test_p_max_range_validated(self):
        x = RngStream(3).generator().standard_normal(20)
        with pytest.raises(ValueError):
            ar_order_select_aic(x, 10)

    def test_white_noise_prefers_zero(self):
        # AIC with penalty 2p keeps order 0 on white noise with probability
        # ~0.70 at p_max=8 (the chi-square random walk with drift -2 stays
        # negative); assert the modal order and a conservative floor.
        orders = []
        for s in range(200):
            x = RngStream(derive_seed(17, (s,))).generator().standard_normal(1000)
            orders.append(ar_order_select_aic(x, 8))
        orders = np.asarray(orders)
        assert int(np.argmax(np.bincount(orders))) == 0
        assert np.mean(orders == 0) >= 0.60

    def test_ar1_modal_order_is_one(self):
        from secondwild.dgp import DgpSpec, gen_series

        orders = []
        for s in range(200):
            x = gen_series(DgpSpec("ar1", "independent", T=1000, rho=0.9, seed=derive_seed(19, (s,))))
            orders.append(ar_order_select_aic(x, 8))
        counts = np.bincount(orders)
        assert int(np.argmax(counts)) == 1


class TestLinearization:
    def test_order_one(self):
        lin = linearization_matrix([1.0, 0.5], 1)
        assert lin == pytest.approx(np.array([[-0.5, 1.0]]))

    def test_identity_sigma_zero_gamma(self):
        lin = linearization_matrix([1.0, 0.0, 0.0], 2)
        assert lin[:, 0] == pytest.approx([0.0, 0.0])
        assert lin[:, 1] == pytest.approx([1.0, 0.0])
        assert lin[:, 2] == pytest.approx([0.0, 1.0])

    def test_order_one_zero_gamma(self):
        lin = linearization_matrix([1.0, 0.0], 1)
        assert lin == pytest.approx(np.array([[0.0, 1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linearization_matrix([1.0, 0.5], 2)

    def test_matches_studentized_form_at_order_one(self):
        # with sigma_0 = 1 the order-1 linearized sequence coincides with the
        # studentized autocorrelation sequence
        g = RngStream(23).generator()
        x = g.standard_normal(64)
        x = x / np.sqrt(autocov_vector(x, 0)[0])  # rescale so sigma_hat_0 = 1
        sigma = autocov_vector(x, 1)
        assert sigma[0] == pytest.approx(1.0, abs=1e-12)
        lin = linearization_matrix(sigma, 1)
        T = len(x)
        z_lin = np.zeros(T)
        z_thm = np.zeros(T)
        for i in range(1, T):
            z_lin[i] = lin[0, 0] * (x[i] * x[i] - sigma[0]) + lin[0, 1] * (x[i] * x[i - 1] - sigma[1])
            z_thm[i] = -(sigma[1] / sigma[0] ** 2) * (x[i] * x[i] - sigma[0]) + (
                x[i] * x[i - 1] - sigma[1]
            ) / sigma[0]
        assert np.abs(z_lin - z_thm).max() <= 1e-12


class TestResidualMatrix:
    def test_matches_brute_rows(self):
        for s in range(10):
            g = RngStream(derive_seed(29, (s,))).generator()
            T = int(g.integers(5, 51))
            x = g.standard_normal(T)
            d = int(g.integers(0, min(T - 1, 6) + 1))
            sigma = autocov_vector(x, d)
            rows = second_order_residual_matrix(x, sigma, d)
            brute = brute_residual_rows(x, sigma, range(d + 1))
            for j in range(d + 1):
                assert np.abs(rows[j] - brute[j]).max() <= 1e-12


class TestEstimateSecondOrder:
    def test_consistency(self):
        x = RngStream(31).generator().standard_normal(200)
        est = estimate_second_order(x, 5, 2)
        assert est.rho_hat[0] == 1.0
        assert est.rho_hat[3] == pytest.approx(est.sigma_hat[3] / est.sigma_hat[0])
        assert est.H == (0, 1, 2, 3, 4, 5)
        assert est.I == (1, 2, 3, 4, 5)
        assert est.a_hat == pytest.approx(yule_walker_fit(est.sigma_hat, 2))

    def test_rejects_bad_sets(self):
        x = RngStream(31).generator().standard_normal(50)
        with pytest.raises(ValueError, match="H"):
            estimate_second_order(x, 4, 1, H=(0, 9), I=(1,))
        with pytest.raises(ValueError, match="I"):
            estimate_second_order(x, 4, 1, H=(0,), I=(0, 1))
        with pytest.raises(ValueError):
            estimate_second_order(x, 4, 5)
