from dataclasses import replace

import numpy as np
import pytest

import secondwild.dgp as dgp_mod
from secondwild.dgp import (
    MODELS,
    DgpSpec,
    InnovationKind,
    ar_autocovariances,
    gen_innovations,
    gen_series,
    gen_series_block,
    ma_autocovariances,
    model_autocovariances,
    nlar2_path,
    parse_innovation,
)
from secondwild.rng import RngStream, derive_seed
from secondwild.series import autocov_vector, estimate_second_order


class TestInnovations:
    @pytest.mark.parametrize("kind", list(InnovationKind))
    def test_white_noise_normalization(self, kind):
        eps = gen_innovations(kind, 10**6, RngStream(43))
        assert abs(eps.mean()) <= 0.005
        assert eps.var() == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("kind", list(InnovationKind))
    def test_whiteness(self, kind):
        # rho_hat_j of the dependent kinds has variance up to 3/n rather
        # than 1/n (E[eps_i^2 eps_{i-j}^2] = 3 at short lags), so the 4-sigma
        # whiteness gate scales accordingly
        n = 10**6
        eps = gen_innovations(kind, n, RngStream(47))
        worst = np.abs(estimate_second_order(eps, 5, 1).rho_hat[1:]).max()
        inflation = 1.0 if kind is InnovationKind.INDEPENDENT else np.sqrt(3.0)
        assert worst < 4.0 * inflation / np.sqrt(n)

    def test_product_fourth_moment(self):
        eps = gen_innovations("product_of_normals", 10**6, RngStream(53))
        assert np.mean(eps[1:] ** 2 * eps[:-1] ** 2) == pytest.approx(3.0, abs=0.15)

    def test_non_stationary_fourth_moment_alternates(self):
        # E eps^4 is 3 at plain positions and 9 at product positions; the
        # adjacent-square cross moment is ~3 at both parities because each
        # product straddles its two neighbours
        eps = gen_innovations("non_stationary", 10**6, RngStream(59))
        fourth_product_positions = np.mean(eps[0::2] ** 4)
        fourth_plain_positions = np.mean(eps[1::2] ** 4)
        assert fourth_product_positions == pytest.approx(9.0, abs=0.6)
        assert fourth_plain_positions == pytest.approx(3.0, abs=0.2)
        sq = eps * eps
        cross = sq[1:] * sq[:-1]
        assert np.mean(cross[0::2]) == pytest.approx(3.0, abs=0.15)
        assert np.mean(cross[1::2]) == pytest.approx(3.0, abs=0.15)

    def test_parity_anchored_to_latent_stream(self):
        # the same stream truncated by a burn-in keeps the same alternation
        full = gen_innovations("non_stationary", 1000, RngStream(61))
        again = gen_innovations("non_stationary", 1000, RngStream(61))
        assert np.array_equal(full, again)

    def test_aliases(self):
        assert parse_innovation("product") is InnovationKind.PRODUCT_OF_NORMALS
        assert parse_innovation("nonstat") is InnovationKind.NON_STATIONARY
        with pytest.raises(ValueError, match="unknown innovation"):
            parse_innovation("cauchy")


class TestGenSeries:
    def test_deterministic(self):
        spec = DgpSpec("ar4", "product_of_normals", T=500, seed=67)
        assert np.array_equal(gen_series(spec), gen_series(spec))

    def test_ar1_autocovariances(self):
        x = gen_series(DgpSpec("ar1", "independent", T=10**5, rho=0.7, seed=71))
        sigma = autocov_vector(x, 3)
        for k in range(4):
            assert sigma[k] == pytest.approx(0.7**k / 0.51, abs=0.05)

    def test_ma3_cutoff(self):
        for kind in InnovationKind:
            x = gen_series(DgpSpec("ma3", kind, T=10**5, seed=73))
            sigma = autocov_vector(x, 6)
            assert abs(sigma[4]) <= 0.02
            assert abs(sigma[5]) <= 0.02

    def test_nlar2_centered(self):
        x = gen_series(DgpSpec("nlar2", "independent", T=10**5, seed=79))
        assert abs(x.mean()) <= 0.05

    def test_validation(self):
        with pytest.raises(ValueError, match="rho"):
            DgpSpec("ar1", "independent", T=100, rho=1.0)
        with pytest.raises(ValueError, match="unknown model"):
            DgpSpec("arma", "independent", T=100)
        with pytest.raises(ValueError):
            DgpSpec("ar1", "independent", T=5)

    def test_burn_in_insensitivity(self):
        # a weakly dependent model: doubling the burn-in shifts the sampling
        # window, so estimates move only by the noise of the swapped-out
        # stretch; for ar1(0.3) that stays below 0.02 in most seeds
        hits = 0
        for s in range(200):
            seed = derive_seed(83, (s,))
            a = gen_series(DgpSpec("ar1", "independent", T=10**4, rho=0.3, seed=seed, burn_in=1000))
            b = gen_series(DgpSpec("ar1", "independent", T=10**4, rho=0.3, seed=seed, burn_in=2000))
            diff = np.abs(autocov_vector(a, 4) - autocov_vector(b, 4)).max()
            hits += diff < 0.02
        assert hits >= 190


class TestModelAutocovariances:
    def test_ar_solves_moment_system(self):
        coef = np.array([0.5, 0.2])
        gamma = ar_autocovariances(coef, 1.0, 10)
        # Yule-Walker consistency at every lag >= 1
        for k in range(1, 11):
            lhs = gamma[k]
            rhs = sum(coef[j - 1] * gamma[abs(k - j)] for j in range(1, 3))
            assert lhs == pytest.approx(rhs, rel=1e-12)
        assert gamma[0] == pytest.approx(coef @ gamma[1:3] + 1.0, rel=1e-12)

    def test_ar_matches_simulation(self):
        gamma = ar_autocovariances([0.3, 0.2, 0.2, 0.1], 1.0, 4)
        x = gen_series(DgpSpec("ar4", "independent", T=2 * 10**5, seed=89))
        sim = autocov_vector(x, 4)
        assert sim == pytest.approx(gamma, abs=0.08)

    def test_ma_convolution(self):
        gamma = ma_autocovariances([0.6, 0.4, 0.1], 1.0, 5)
        assert gamma[0] == pytest.approx(1.0 + 0.36 + 0.16 + 0.01)
        assert gamma[1] == pytest.approx(0.6 + 0.24 + 0.04)
        assert gamma[2] == pytest.approx(0.4 + 0.06)
        assert gamma[3] == pytest.approx(0.1)
        assert gamma[4] == gamma[5] == 0.0

    def test_white_noise_order_zero(self):
        gamma = ar_autocovariances(np.empty(0), 2.5, 3)
        assert gamma == pytest.approx([2.5, 0.0, 0.0, 0.0])

    def test_model_autocov_dispatch(self):
        assert model_autocovariances("ma3", 0.9, 2) == pytest.approx(
            ma_autocovariances([0.6, 0.4, 0.1], 1.0, 2)
        )
        with pytest.raises(ValueError):
            model_autocovariances("nlar2", 0.9, 2)


class TestSeriesBlock:
    @pytest.mark.parametrize("kind", list(InnovationKind))
    @pytest.mark.parametrize("model", MODELS)
    def test_rows_equal_gen_series(self, model, kind):
        spec = DgpSpec(model, kind, T=50, burn_in=100, rho=0.7)
        seeds = [derive_seed(61, (i,)) for i in range(8)]
        block = gen_series_block(spec, seeds)
        assert block.shape == (8, 50)
        for row, seed in zip(block, seeds):
            assert np.array_equal(row, gen_series(replace(spec, seed=seed)))

    def test_nlar2_stack_equals_scalar_loop(self):
        eps = 2.0 * RngStream(67).generator().standard_normal((8, 500))
        stacked = nlar2_path(eps)
        for row, e in zip(stacked, eps):
            assert np.array_equal(row, nlar2_path(e))
        assert np.array_equal(nlar2_path(eps[:1]), stacked[:1])

    def test_non_finite_value_rejected(self, monkeypatch):
        real = dgp_mod.gen_innovations

        def _with_inf(kind, n, stream):
            out = real(kind, n, stream)
            if stream.seed == 2:
                out[-3] = np.inf
            return out

        monkeypatch.setattr(dgp_mod, "gen_innovations", _with_inf)
        with pytest.raises(ValueError, match="series 1 contains a non-finite value at position 47"):
            gen_series_block(DgpSpec("ma3", "independent", T=50, burn_in=100), [1, 2, 3])
