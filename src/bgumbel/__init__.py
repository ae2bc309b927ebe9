"""Bimodal Gumbel (BG) distribution toolkit.

Density, distribution function, moments and moment generating function of
the quadratically weighted Gumbel law, mode/bimodality analysis, random
sampling (Metropolis and exact mixture inversion), maximum-likelihood
inference with standard errors, and a block-maxima goodness-of-fit pipeline
with a command-line front end.
"""
from .distribution import (
    BgParams,
    GumbelParams,
    MomentSet,
    bg_cdf,
    bg_exp_moment,
    bg_log_pdf,
    bg_mgf,
    bg_moment,
    bg_moment_set,
    bg_pdf,
    bg_sf,
    gumbel_cdf,
    gumbel_moment,
    gumbel_pdf,
    gumbel_ppf,
    mixture_weights,
    normalizer,
    weighted_gumbel_cdf,
)
from .errors import (
    BGumbelError,
    DegenerateDataError,
    DegenerateWeightError,
    InsufficientDataError,
    RegimeError,
    RootIsolationError,
)
from .inference import (
    FitDiagnostics,
    FitResult,
    LocalMaximum,
    fisher_information,
    fit_gumbel_mle,
    fit_mle,
    hessian,
    log_likelihood,
    score,
)
from .model_selection import (
    BlockMaximaConfig,
    DescriptiveStats,
    GofReport,
    ModelComparison,
    block_maxima,
    compare_models,
    descriptive_stats,
    information_criteria,
    ks_test,
    ljung_box,
    read_series_csv,
)
from .sampling import (
    Chain,
    ChainSummary,
    McmcConfig,
    chain_summary,
    mh_sample,
    representation_sample,
    save_draws_csv,
)
from .shape import (
    ConditionCReport,
    HazardPoint,
    ShapeReport,
    check_condition_c,
    critical_function_g,
    d_interval,
    find_modes,
    hazard,
    tail_rate,
)
from .special import (
    CONSTANTS,
    Constants,
    digamma,
    gamma_deriv,
    incomplete_log_moment,
    log_moment_constant,
    trigamma,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # parameters and reports
    "BgParams", "GumbelParams", "MomentSet", "ShapeReport", "HazardPoint",
    "ConditionCReport", "FitResult", "FitDiagnostics", "LocalMaximum", "McmcConfig", "Chain", "ChainSummary",
    "BlockMaximaConfig", "GofReport", "ModelComparison", "DescriptiveStats",
    "Constants", "CONSTANTS",
    # distribution
    "normalizer", "bg_pdf", "bg_log_pdf", "bg_cdf", "bg_sf", "weighted_gumbel_cdf",
    "mixture_weights", "bg_moment", "bg_moment_set", "bg_mgf", "bg_exp_moment",
    "gumbel_pdf", "gumbel_cdf", "gumbel_ppf", "gumbel_moment",
    # shape
    "critical_function_g", "check_condition_c", "d_interval", "find_modes",
    "hazard", "tail_rate",
    # sampling
    "mh_sample", "representation_sample", "chain_summary", "save_draws_csv",
    # inference
    "log_likelihood", "score", "hessian", "fisher_information",
    "fit_mle", "fit_gumbel_mle",
    # model selection
    "block_maxima", "ljung_box", "ks_test", "information_criteria",
    "descriptive_stats", "compare_models", "read_series_csv",
    # special functions
    "incomplete_log_moment", "log_moment_constant",
    "digamma", "trigamma", "gamma_deriv",
    # errors
    "BGumbelError",
    "DegenerateWeightError", "RegimeError", "RootIsolationError",
    "DegenerateDataError", "InsufficientDataError",
]
