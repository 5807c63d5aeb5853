"""Simultaneous second-order inference for weakly stationary time series.

The package estimates autocovariances, autocorrelations, and fitted AR
coefficients, and builds simultaneous confidence bands and threshold tests
for them through a wild bootstrap that perturbs the second-order residuals
X_i X_{i-j} - sigma_hat_j with correlated Gaussian multipliers.  A plug-in
route (kernel long-run covariance plus a Gaussian-max quantile oracle), an
AR-sieve comparator, simulation models, and a Monte Carlo harness round out
the toolkit.
"""

from .bootstrap import (
    BootstrapConfig,
    BootstrapDraws,
    FamilyBand,
    InferenceReport,
    TestResult,
    hypothesis_tests,
    multiplier_factor,
    run_bootstrap,
    run_plugin,
)
from .dgp import (
    DgpSpec,
    InnovationKind,
    ar_autocovariances,
    gen_innovations,
    gen_series,
    gen_series_block,
    ma_autocovariances,
    model_autocovariances,
)
from .errors import DegenerateVarianceError, InputDataError, NotPsdError, NumericalError
from .gaussian import PsdFactor, factorize_psd, gaussian_max_quantile
from .hac import (
    TARGET_ARCOEF,
    TARGET_AUTOCORR,
    TARGET_AUTOCOV,
    hac_arcoef_cov,
    hac_autocorr_cov,
    hac_autocov_cov,
)
from .harness import (
    ApproxCheckReport,
    CoverageReport,
    CoverageRow,
    Scenario,
    VarianceStudyReport,
    all_scenarios,
    coverage_study,
    gaussian_approx_check,
    true_autocovariances,
    variance_study,
)
from .kernels import BandwidthRule, kernel_eval, kernel_gram, select_bandwidth
from .quantiles import ecdf_pvalue, ecdf_quantile
from .rng import RngStream, derive_seed
from .series import (
    SecondOrderEstimates,
    ar_order_select_aic,
    autocov_vector,
    estimate_second_order,
    linearization_matrix,
    yule_walker_fit,
)
from .sieve import SieveConfig, ar_sieve_bootstrap, stabilize_ar

__version__ = "0.1.2"

__all__ = [
    "ApproxCheckReport",
    "BandwidthRule",
    "BootstrapConfig",
    "BootstrapDraws",
    "CoverageReport",
    "CoverageRow",
    "DegenerateVarianceError",
    "DgpSpec",
    "FamilyBand",
    "InferenceReport",
    "InnovationKind",
    "InputDataError",
    "NotPsdError",
    "NumericalError",
    "PsdFactor",
    "RngStream",
    "Scenario",
    "SecondOrderEstimates",
    "SieveConfig",
    "TARGET_ARCOEF",
    "TARGET_AUTOCORR",
    "TARGET_AUTOCOV",
    "TestResult",
    "VarianceStudyReport",
    "all_scenarios",
    "ar_autocovariances",
    "ar_order_select_aic",
    "ar_sieve_bootstrap",
    "autocov_vector",
    "coverage_study",
    "derive_seed",
    "ecdf_pvalue",
    "ecdf_quantile",
    "estimate_second_order",
    "factorize_psd",
    "gaussian_approx_check",
    "gaussian_max_quantile",
    "gen_innovations",
    "gen_series",
    "gen_series_block",
    "hac_arcoef_cov",
    "hac_autocorr_cov",
    "hac_autocov_cov",
    "hypothesis_tests",
    "kernel_eval",
    "kernel_gram",
    "linearization_matrix",
    "ma_autocovariances",
    "model_autocovariances",
    "multiplier_factor",
    "run_bootstrap",
    "run_plugin",
    "select_bandwidth",
    "stabilize_ar",
    "true_autocovariances",
    "variance_study",
    "yule_walker_fit",
]
