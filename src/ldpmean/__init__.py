"""Locally differentially private estimation of a Gaussian mean.

The package covers the full pipeline: binary privacy channels
(``mechanisms``), the quantized-Gaussian information calculus
(``quantized``), exact verification that the sign mechanism maximizes
the released Fisher information in the high-privacy regime (``lp``),
staged estimators that attain the matching variance (``estimators``),
and a reproducible Monte Carlo harness (``sim``) fronted by a CLI
(``cli``).
"""

__version__ = "0.1.0"

from .estimators import (
    EstimateResult,
    EstimatorConfig,
    invert_mean,
    one_stage,
    one_stage_asymptotic_variance,
    optimal_asymptotic_variance,
    rescaled_estimate,
    three_stage,
    two_stage,
)
from .lp import (
    DualFeasibilityReport,
    PrimalSolution,
    StaircaseLp,
    build_staircase_lp,
    certificate_margin,
    certificate_margin_lower,
    certificate_margin_upper,
    check_dual_feasibility,
    dual_certificate,
    equality_chain,
    interior_stationarity,
    mechanism_from_solution,
    sign_candidate,
    solve_primal,
)
from .mechanisms import (
    PrivacyParams,
    privacy_params,
    randomized_response,
    rr_matrix,
    sign_mechanism,
    verify_ldp,
)
from .numerics import std_normal_cdf, std_normal_pdf, std_normal_quantile
from .quantized import (
    QuantizedModel,
    build_quantized_model,
    embed_sign_channel,
    fisher_info_quantized,
    row_information,
    sign_fisher_info,
)
from .sim import (
    BudgetError,
    ExperimentConfig,
    MseResult,
    bootstrap_ci,
    results_to_csv,
    run_experiment,
)

__all__ = [
    "__version__",
    "BudgetError",
    "DualFeasibilityReport",
    "EstimateResult",
    "EstimatorConfig",
    "ExperimentConfig",
    "MseResult",
    "PrimalSolution",
    "PrivacyParams",
    "QuantizedModel",
    "StaircaseLp",
    "bootstrap_ci",
    "build_quantized_model",
    "build_staircase_lp",
    "certificate_margin",
    "certificate_margin_lower",
    "certificate_margin_upper",
    "check_dual_feasibility",
    "dual_certificate",
    "embed_sign_channel",
    "equality_chain",
    "fisher_info_quantized",
    "interior_stationarity",
    "invert_mean",
    "mechanism_from_solution",
    "one_stage",
    "one_stage_asymptotic_variance",
    "optimal_asymptotic_variance",
    "privacy_params",
    "randomized_response",
    "rescaled_estimate",
    "results_to_csv",
    "row_information",
    "rr_matrix",
    "run_experiment",
    "sign_candidate",
    "sign_fisher_info",
    "sign_mechanism",
    "solve_primal",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "three_stage",
    "two_stage",
    "verify_ldp",
]
