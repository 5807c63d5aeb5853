"""Benchmark inputs and the reference computations its checks compare against.

Nothing here imports ``secondwild``: the input series are made with numpy's
own generator, so a change to the package's simulation models cannot change
what the CLI workloads analyse, and every reference value is computed from
its defining formula, so a check never passes because it shares a bug with
the code it checks.
"""

from __future__ import annotations

import numpy as np


def ar1_product_series(seed: int, index: int, T: int, rho: float, burn_in: int = 1000) -> np.ndarray:
    """AR(1) driven by products of neighbouring standard normals.

    The innovations e_t e_{t-1} are white noise but not independent, the
    regime in which the wild bootstrap is meant to stay valid.
    """
    e = np.random.default_rng([seed, index, 1]).standard_normal(burn_in + T + 1)
    eps = e[1:] * e[:-1]
    out = np.empty(eps.size)
    prev = 0.0
    for t, value in enumerate(eps.tolist()):
        prev = rho * prev + value
        out[t] = prev
    return out[burn_in:]


def flat_ma_product_series(seed: int, index: int, T: int, order: int, theta: float) -> np.ndarray:
    """x_t = eps_t + theta * (eps_{t-1} + ... + eps_{t-order}), eps_t = e_t e_{t-1}.

    Every autocorrelation up to ``order`` stays well above the automatic
    bandwidth rule's threshold and every later one is zero, so the rule
    stops at q = order on every seed and the request size does not follow
    the seed.
    """
    e = np.random.default_rng([seed, index, 2]).standard_normal(T + order + 1)
    eps = e[1:] * e[:-1]
    weights = np.full(order + 1, theta)
    weights[0] = 1.0
    return np.convolve(eps, weights, mode="valid")


def write_csv(path, values: np.ndarray) -> None:
    """One value per line, written with the shortest exact float text."""
    with open(path, "w") as f:
        for chunk in np.array_split(values, max(1, values.size // 100_000)):
            f.write("\n".join(map(repr, chunk.tolist())) + "\n")


def autocovariances(x: np.ndarray, d: int) -> np.ndarray:
    """sigma_j = (1/T) sum_{i>j} x_i x_{i-j}, j = 0..d."""
    T = x.size
    return np.array([np.dot(x[j:], x[: T - j]) for j in range(d + 1)]) / T


def toeplitz_solve(sigma: np.ndarray, p: int) -> np.ndarray:
    """Yule-Walker coefficients from the p x p Toeplitz system."""
    lags = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    return np.linalg.solve(sigma[lags], sigma[1 : p + 1])


def residual_rows(x: np.ndarray, sigma: np.ndarray, lags) -> np.ndarray:
    """Row j holds x_i x_{i-j} - sigma_j for i > j and zeros before."""
    T = x.size
    rows = np.zeros((len(lags), T))
    for r, j in enumerate(lags):
        rows[r, j:] = x[j:] * x[: T - j] - sigma[j]
    return rows


def multiplier_covariance(rows: np.ndarray, k_T: float) -> np.ndarray:
    """R K R^T / T with K_st = exp(-((s - t) / k_T)^2 / 2), K built densely.

    This is the exact covariance of sqrt(T) * delta for Gaussian multipliers
    with covariance K, the conditional law of one wild-bootstrap replicate.
    """
    T = rows.shape[1]
    lag = np.subtract.outer(np.arange(T), np.arange(T)) / k_T
    K = np.exp(-0.5 * lag * lag)
    return rows @ K @ rows.T / T


def long_run_covariance_fft(rows: np.ndarray, k_T: float) -> np.ndarray:
    """(1/T) sum_{s,t} K((s - t)/k_T) r_a(s) r_b(t), by FFT convolution.

    The Gaussian kernel is kept out to 9 bandwidths, where it is below 3e-18.
    """
    T = rows.shape[1]
    m = int(np.ceil(9 * k_T))
    window = np.exp(-0.5 * (np.arange(-m, m + 1) / k_T) ** 2)
    n = 1 << int(np.ceil(np.log2(T + 2 * m)))
    window_f = np.fft.rfft(window, n)
    smoothed = np.empty_like(rows)
    for r in range(rows.shape[0]):
        full = np.fft.irfft(np.fft.rfft(rows[r], n) * window_f, n)
        smoothed[r] = full[m : m + T]
    out = rows @ smoothed.T / T
    return (out + out.T) / 2


def max_abs_gaussian_quantile(cov: np.ndarray, level: float, n: int, rng: np.random.Generator):
    """Quantile of max_j |xi_j|, xi ~ N(0, cov), and its density there.

    The density, from the share of draws within 2% of the quantile, turns a
    sample size into a standard error: se = sqrt(level (1 - level) / n) / f.
    """
    vals, vecs = np.linalg.eigh(cov)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    maxima = np.abs(rng.standard_normal((n, cov.shape[0])) @ root.T).max(axis=1)
    q = float(np.quantile(maxima, level, method="inverted_cdf"))
    h = 0.02 * q
    density = float(np.mean(np.abs(maxima - q) <= h)) / (2 * h)
    return q, density


def quantile_se(level: float, n: int, density: float) -> float:
    return float(np.sqrt(level * (1.0 - level) / n) / density)


def ar1_autocovariances(rho: float, max_lag: int) -> np.ndarray:
    """Unit-noise AR(1) autocovariances rho^h / (1 - rho^2)."""
    return rho ** np.arange(max_lag + 1) / (1.0 - rho * rho)
