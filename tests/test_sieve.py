import re

import numpy as np
import pytest

import secondwild.sieve as sieve_mod
from secondwild.dgp import DgpSpec, ar_autocovariances, gen_series
from secondwild.errors import NumericalError
from secondwild.series import autocov_vector
from secondwild.sieve import SieveConfig, ar_sieve_bootstrap, stabilize_ar

ARGS = dict(d=7, p=1, H=(0, 1, 2, 3), I=(1, 2, 3, 4))


class TestStabilize:
    def test_stable_untouched(self):
        a, steps = stabilize_ar(np.array([0.5, 0.2]))
        assert steps == 0
        assert a == pytest.approx([0.5, 0.2])

    def test_empty_and_zero(self):
        a, steps = stabilize_ar(np.empty(0))
        assert steps == 0 and a.size == 0
        a, steps = stabilize_ar(np.zeros(3))
        assert steps == 0

    def test_unstable_shrunk(self):
        a, steps = stabilize_ar(np.array([1.2]))
        assert steps > 0
        assert abs(a[0]) < 1.0
        root = 1.0 / abs(a[0])
        assert root > 1.0 + 1e-6

    def test_hopeless_raises(self):
        with pytest.raises(NumericalError):
            stabilize_ar(np.array([50.0]))


class TestSieveConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SieveConfig(burn_in=50)
        with pytest.raises(ValueError):
            SieveConfig(B=0)
        with pytest.raises(ValueError):
            SieveConfig(alpha=0.0)


class TestSieveBootstrap:
    def test_deterministic(self):
        x = gen_series(DgpSpec("ar2", "independent", T=400, seed=31))
        cfg = SieveConfig(B=200, seed=7)
        r1, d1 = ar_sieve_bootstrap(x, cfg=cfg, **ARGS)
        r2, d2 = ar_sieve_bootstrap(x, cfg=cfg, **ARGS)
        assert r1.to_dict() == r2.to_dict()
        assert np.array_equal(d1.delta_a, d2.delta_a)

    def test_degenerate_residual_pool_gives_zero_draws(self, monkeypatch):
        # with an all-zero residual pool every replicate regenerates the
        # deterministic skeleton, whose second-order parameters equal the
        # bootstrap-world truth, so every max statistic is exactly zero
        x = gen_series(DgpSpec("ar1", "independent", T=200, rho=0.5, seed=35))
        monkeypatch.setattr(
            sieve_mod, "_fit_sieve_autocov", lambda v, sigma, p_max: (1, np.array([0.5]), 0, np.zeros(100))
        )
        report, draws = ar_sieve_bootstrap(x, cfg=SieveConfig(B=50, seed=3), **ARGS)
        assert np.all(draws.delta_sigma == 0.0)
        assert np.all(draws.delta_rho == 0.0)
        assert np.all(draws.delta_a == 0.0)
        assert all(r == 0.0 for r in report.radii.values())

    def test_bootstrap_world_truth_matches_sample_up_to_fitted_order(self):
        # A Yule-Walker fit with innovation variance sigma_0 - a . gamma
        # reproduces the sample autocovariances at lags 0..p_fit exactly;
        # the replicate world uses the resampled pool's variance instead, so
        # its truth is the sample values scaled by that variance ratio (an
        # O(1/T) factor)
        x = gen_series(DgpSpec("ar2", "independent", T=600, seed=37))
        report, _ = ar_sieve_bootstrap(x, cfg=SieveConfig(B=2, seed=1, p_max=4), **ARGS)
        p_fit = report.provenance["fitted_order"]
        v_boot = report.provenance["innovation_variance"]
        from secondwild.series import autocov_vector, yule_walker_fit

        sigma = autocov_vector(x, 7)
        coef = yule_walker_fit(sigma, p_fit)
        v_yw = sigma[0] - coef @ sigma[1 : p_fit + 1]
        model_sigma = ar_autocovariances(coef, v_boot, p_fit)
        ratio = v_boot / v_yw
        assert model_sigma == pytest.approx(sigma[: p_fit + 1] * ratio, rel=1e-8)
        assert ratio == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize(
        "T, p, p_max, message",
        [
            (200, 0, 4, "need 1 <= p <= d, got p=0, d=7"),
            (200, 8, 4, "need 1 <= p <= d, got p=8, d=7"),
            (20, 1, 10, "p_max 10 out of range for series of length 20 (need 0 <= p_max < T/2)"),
            (7, 1, 2, "series of length 7 too short for maximum lag 7"),
        ],
        ids=["p-zero", "p-above-d", "p_max-too-large", "series-too-short"],
    )
    def test_argument_errors(self, T, p, p_max, message):
        x = gen_series(DgpSpec("ar1", "independent", T=max(T, 10), rho=0.5, seed=43))[:T]
        args = dict(ARGS, p=p)
        with pytest.raises(ValueError, match=re.escape(message)):
            ar_sieve_bootstrap(x, cfg=SieveConfig(B=2, p_max=p_max), **args)

    def test_report_bands_center_on_sample_estimates(self):
        x = gen_series(DgpSpec("ma3", "independent", T=500, seed=39))
        report, _ = ar_sieve_bootstrap(x, cfg=SieveConfig(B=100, seed=2), **ARGS)
        est = report.estimates
        band = report.bands["autocovariance"]
        assert band.estimate == pytest.approx(est.sigma_hat[list(est.H)])
        assert np.all(band.lower <= band.estimate)


def test_whiteness_of_residual_pool_after_fit():
    # on an AR(1) the fitted residuals should be close to white
    x = gen_series(DgpSpec("ar1", "independent", T=2000, rho=0.8, seed=41))
    p_fit, coef, _, pool = sieve_mod._fit_sieve_autocov(x, autocov_vector(x, 6), 6)
    assert p_fit >= 1
    assert abs(pool.mean()) < 1e-12  # centered
    lag1 = np.mean(pool[1:] * pool[:-1]) / np.mean(pool * pool)
    assert abs(lag1) < 0.1
