"""Equilibrium Merton portfolios under non-exponential discounting.

Computes and verifies time-consistent (equilibrium) investment-consumption
policies for a CRRA investor whose discount function need not be exponential:
value-coefficient solvers, a priori bounds, policy construction and
time-inconsistency diagnostics, Monte Carlo SDE verification, and convex
duality checks.
"""

from .model import (
    CrraUtility,
    DiscountSpec,
    DomainError,
    ExponentialDiscount,
    ExponentialMixtureDiscount,
    HyperbolicDiscount,
    MarketParams,
    ParameterError,
    TimeGrid,
)
from .solver import (
    BoundsCertificate,
    FitTooCoarseError,
    MixtureFitReport,
    NonConvergenceError,
    StepFailureError,
    ValueCurve,
    a_priori_bounds,
    fit_exponential_mixture,
    growth_constant,
    mixture_ode_solve,
    picard_solve,
    residual_differential_form,
    residual_integral_equation,
    solve_no_consumption,
    theta_closed_form,
)
from .policy import (
    EquilibriumPolicy,
    PrecommitmentPolicy,
    equilibrium_policy,
    inconsistency_report,
    naive_consumption,
    solve_precommitment,
    stock_fraction,
)
from .simulate import (
    SimBatch,
    SimConfig,
    Spike,
    Verdict,
    martingale_check,
    moment_check,
    perturbation_test,
    simulate_equilibrium,
    verify_value_identity,
)
from .duality import (
    DualValue,
    dual_from_primal,
    dual_pde_residual,
    primal_dual_roundtrip,
)
from .config import ConfigError, RunConfig, SimSettings, SolverSettings, load_config

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "MarketParams", "CrraUtility", "TimeGrid", "DiscountSpec",
    "ExponentialDiscount", "ExponentialMixtureDiscount", "HyperbolicDiscount",
    "ParameterError", "DomainError",
    # solver
    "ValueCurve", "BoundsCertificate", "MixtureFitReport",
    "NonConvergenceError", "StepFailureError", "FitTooCoarseError",
    "growth_constant", "solve_no_consumption", "picard_solve",
    "mixture_ode_solve", "theta_closed_form", "fit_exponential_mixture",
    "a_priori_bounds", "residual_integral_equation", "residual_differential_form",
    # policy
    "EquilibriumPolicy", "PrecommitmentPolicy",
    "stock_fraction", "equilibrium_policy", "solve_precommitment",
    "naive_consumption", "inconsistency_report",
    # simulate
    "SimConfig", "SimBatch", "Spike", "Verdict",
    "simulate_equilibrium", "verify_value_identity", "martingale_check",
    "moment_check", "perturbation_test",
    # duality
    "DualValue", "dual_from_primal", "dual_pde_residual", "primal_dual_roundtrip",
    # config
    "RunConfig", "SolverSettings", "SimSettings", "ConfigError", "load_config",
]
