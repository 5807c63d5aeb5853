import math

import numpy as np
import pytest

from secondwild.errors import NotPsdError
from secondwild.gaussian import (
    factorize_psd,
    gaussian_max_quantile,
    max_abs_normal_sample,
)
from secondwild.kernels import kernel_eval, kernel_gram
from secondwild.rng import RngStream


class TestFactorizePsd:
    def test_identity(self):
        f = factorize_psd(np.eye(3))
        assert f.jitter == 0.0
        assert np.array_equal(f.L, np.eye(3))

    def test_two_by_two_hand_cholesky(self):
        e = math.exp(-0.5)
        f = factorize_psd(np.array([[1.0, e], [e, 1.0]]))
        assert f.jitter == 0.0
        assert f.L[0, 0] == pytest.approx(1.0)
        assert f.L[1, 0] == pytest.approx(e)
        assert f.L[1, 1] == pytest.approx(math.sqrt(1.0 - math.exp(-1.0)))

    def test_rank_one_needs_small_jitter(self):
        M = np.ones((2, 2))
        f = factorize_psd(M)
        assert 0.0 < f.jitter <= 1e-6 * 2.0
        assert np.abs(f.L @ f.L.T - M).max() <= 1e-6 * (1.0 + 1.0)

    def test_zero_matrix(self):
        f = factorize_psd(np.zeros((4, 4)))
        assert f.jitter == 0.0
        assert np.all(f.L == 0.0)

    def test_indefinite_rejected_with_pivot(self):
        M = np.array([[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(NotPsdError) as err:
            factorize_psd(M)
        assert err.value.most_negative == pytest.approx(-0.5)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            factorize_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSampleCorrelatedNormals:
    def test_reproducible_and_unit_variance(self):
        f = factorize_psd(np.eye(1))
        stream = RngStream(7, 3)
        draws = np.array([(f.L @ RngStream(7, i).generator().standard_normal(f.dim))[0] for i in range(100_000)])
        again = f.L @ stream.generator().standard_normal(f.dim)
        assert again == f.L @ stream.generator().standard_normal(f.dim)  # pure function of the stream
        assert draws.var() == pytest.approx(1.0, abs=0.02)

    def test_neighbour_correlation_matches_kernel(self):
        k_T = 3.0
        f = factorize_psd(kernel_gram(2, k_T))
        pairs = np.empty((100_000, 2))
        for i in range(pairs.shape[0]):
            pairs[i] = f.L @ RngStream(11, i).generator().standard_normal(f.dim)
        corr = np.corrcoef(pairs.T)[0, 1]
        assert corr == pytest.approx(kernel_eval(1.0 / k_T), abs=0.01)

    def test_zero_factor_gives_zero_vector(self):
        f = factorize_psd(np.zeros((5, 5)))
        assert np.all(f.L @ RngStream(1, 2).generator().standard_normal(f.dim) == 0.0)


class TestGaussianMaxQuantile:
    def test_zero_covariance(self):
        assert gaussian_max_quantile(np.zeros((3, 3)), 0.05, 10_000, RngStream(1)) == 0.0

    def test_monotone_in_level(self):
        cov = np.eye(4)
        stream = RngStream(13, 5)
        q10 = gaussian_max_quantile(cov, 0.10, 50_000, stream)
        q05 = gaussian_max_quantile(cov, 0.05, 50_000, stream)
        q01 = gaussian_max_quantile(cov, 0.01, 50_000, stream)
        assert q10 <= q05 <= q01

    def test_exact_scaling_with_shared_draws(self):
        M = np.array([[2.0, 0.7], [0.7, 1.5]])
        stream = RngStream(17, 9)
        base = gaussian_max_quantile(M, 0.05, 20_000, stream)
        scaled = gaussian_max_quantile(4.0 * M, 0.05, 20_000, stream)
        assert scaled == 2.0 * base  # bitwise: power-of-two scaling, same draws

    def test_determinism(self):
        cov = np.array([[1.0, 0.3], [0.3, 1.0]])
        a = gaussian_max_quantile(cov, 0.05, 30_000, RngStream(19, 1))
        b = gaussian_max_quantile(cov, 0.05, 30_000, RngStream(19, 1))
        assert a == b

    def test_accepts_factor_and_validates_inputs(self):
        f = factorize_psd(np.eye(2))
        q = gaussian_max_quantile(f, 0.5, 5_000, RngStream(3))
        assert q > 0
        with pytest.raises(ValueError):
            gaussian_max_quantile(np.eye(2), 0.0, 5_000, RngStream(3))
        with pytest.raises(ValueError):
            gaussian_max_quantile(np.eye(2), 0.05, 10, RngStream(3))

    def test_chunking_invisible(self):
        # draws cross the internal chunk boundary; the sample is one stream
        vals = max_abs_normal_sample(np.eye(2), (1 << 16) + 500, RngStream(23, 4))
        assert vals.shape == ((1 << 16) + 500,)
        assert np.all(vals >= 0.0)
