"""Deconvolution density estimation for stochastic volatility models.

The package simulates stationary volatility processes, turns high-frequency
price increments into noisy log sigma^2 observations, and estimates their
(possibly multivariate) stationary density with a Fourier deconvolution
kernel tailored to the log chi-square noise channel.
"""
from .analytic_truth import (
    TruthDensity,
    invariant_density_1d,
    ou_bivariate,
    ou_logsq_marginal,
    regime_bivariate,
    regime_marginal,
    scaled_truth,
)
from .deconv_kernel import (
    DeconvTable,
    build_table,
    eval_table,
    sup_bound,
    vh_quadrature,
)
from .errors import (
    ConfigError,
    DomainError,
    InputError,
    NotFoundError,
    NumericalFailure,
    RangeError,
)
from .estimator import (
    DensityGrid,
    ObservationSet,
    bandwidth_schedule,
    estimate_density,
    log_square_transform,
    marginalize,
    normalized_increments,
)
from .experiment import (
    BiasReport,
    ExperimentConfig,
    MonteCarloReport,
    bias_check,
    compute_mise,
    emit_report,
    mix_seed,
    run_experiment,
    truth_for,
    truth_for_model,
)
from .noise_model import noise_density, phi_k
from .smoothing_kernel import KernelSpec, builtin_kernel, eval_w, kernel_moments
from .vol_sim import (
    OUParams,
    PathBundle,
    RegimeSwitchParams,
    integrate_price,
    markov_transition,
    simulate_bundle,
    simulate_ou,
    simulate_regime_switch,
)

__version__ = "0.1.0"

__all__ = [
    "TruthDensity", "invariant_density_1d", "ou_bivariate", "ou_logsq_marginal",
    "regime_bivariate", "regime_marginal", "scaled_truth",
    "DeconvTable", "build_table", "eval_table", "sup_bound",
    "vh_quadrature",
    "ConfigError", "DomainError", "InputError", "NotFoundError",
    "NumericalFailure", "RangeError",
    "DensityGrid", "ObservationSet", "bandwidth_schedule", "estimate_density",
    "log_square_transform", "marginalize",
    "normalized_increments",
    "BiasReport", "ExperimentConfig", "MonteCarloReport", "bias_check",
    "compute_mise", "emit_report", "mix_seed", "run_experiment", "truth_for",
    "truth_for_model",
    "noise_density", "phi_k",
    "KernelSpec", "builtin_kernel", "eval_w", "kernel_moments",
    "OUParams", "PathBundle", "RegimeSwitchParams", "integrate_price",
    "markov_transition", "simulate_bundle", "simulate_ou",
    "simulate_regime_switch",
    "__version__",
]
