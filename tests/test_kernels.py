import math

import numpy as np
import pytest

from secondwild.kernels import BandwidthRule, kernel_eval, kernel_gram, kernel_window, select_bandwidth
from secondwild.rng import RngStream, derive_seed


class TestKernelEval:
    def test_at_zero(self):
        assert kernel_eval(0.0) == 1.0

    def test_closed_form(self):
        assert kernel_eval(1.0) == pytest.approx(math.exp(-0.5))

    def test_symmetry(self):
        assert kernel_eval(-2.0) == kernel_eval(2.0)


def _scan_window(k_T: float, cutoff: float) -> int:
    """Reference: scan outward from m = 0 and stop before the first offset
    m + 1 with K((m + 1) / k_T) < cutoff (exact because K is nonincreasing
    on [0, inf)).  The scan is evaluated as one array operation."""
    steps = np.arange(1, math.ceil(k_T * math.sqrt(-2.0 * math.log(cutoff))) + 3)
    below = kernel_eval(steps / k_T) < cutoff
    assert below[-1]
    return int(np.argmax(below))


class TestKernelWindow:
    def test_gaussian_window_matches_closed_form(self):
        grid = np.concatenate((np.arange(50, 20_001) / 100.0, np.arange(1, 3000, dtype=float)))
        mismatches = [k_T for k_T in grid if kernel_window(k_T, cutoff=1e-12) != _scan_window(k_T, 1e-12)]
        assert mismatches == []
        assert kernel_window(33.0, cutoff=1e-12) == math.floor(33.0 * math.sqrt(2.0 * 12.0 * math.log(10.0)))
        assert kernel_window(33.0, cutoff=1e-12, limit=10) == 10

    def test_cutoff_zero_requires_limit(self):
        assert kernel_window(2.0, cutoff=0.0, limit=99) == 99
        with pytest.raises(ValueError):
            kernel_window(2.0, cutoff=0.0)


class TestKernelGram:
    def test_two_by_two(self):
        G = kernel_gram(2, 1.0)
        e = math.exp(-0.5)
        assert G == pytest.approx(np.array([[1.0, e], [e, 1.0]]))
        eig = np.linalg.eigvalsh(G)
        assert eig == pytest.approx([1.0 - e, 1.0 + e])

    def test_tiny_bandwidth_is_identityish(self):
        G = kernel_gram(3, 1e-3)
        assert G == pytest.approx(np.eye(3), abs=1e-12)

    def test_psd_across_random_bandwidths(self):
        g = RngStream(5).generator()
        for _ in range(50):
            T = int(g.integers(2, 201))
            k_T = float(g.uniform(0.05, 50.0))
            eig_min = float(np.linalg.eigvalsh(kernel_gram(T, k_T))[0])
            assert eig_min >= -1e-8 * T


class TestBandwidthRule:
    def test_fixed_echo(self):
        x = RngStream(1).generator().standard_normal(100)
        assert select_bandwidth(x, BandwidthRule.fixed(32.9)) == 32.9

    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            BandwidthRule.fixed(0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("make", [BandwidthRule.fixed, BandwidthRule.auto], ids=["fixed", "auto"])
    def test_non_finite_rejected(self, make, value):
        with pytest.raises(ValueError, match="finite"):
            make(value)

    def test_auto_needs_t20(self):
        x = RngStream(1).generator().standard_normal(19)
        with pytest.raises(ValueError, match="fixed"):
            select_bandwidth(x, BandwidthRule.auto())

    def test_white_noise_floors_at_one(self):
        hits = 0
        for s in range(200):
            x = RngStream(derive_seed(37, (s,))).generator().standard_normal(1000)
            hits += select_bandwidth(x, BandwidthRule.auto()) == 1.0
        assert hits >= 140  # q_hat = 0 in >= 70% of seeds

    def test_persistent_series_gets_larger_bandwidth(self):
        from secondwild.dgp import DgpSpec, gen_series

        wins = 0
        for s in range(200):
            seed = derive_seed(41, (s,))
            noise = RngStream(seed, 1).generator().standard_normal(1000)
            ar = gen_series(DgpSpec("ar1", "independent", T=1000, rho=0.9, seed=seed))
            wins += select_bandwidth(ar, BandwidthRule.auto()) > select_bandwidth(
                noise, BandwidthRule.auto()
            )
        assert wins >= 190  # >= 95% of paired seeds
