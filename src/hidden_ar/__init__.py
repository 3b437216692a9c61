"""Simulation, Kalman filtering, parameter estimation, and adaptive
filtering for a partially observed AR(1) process, with a Monte Carlo
harness that checks the estimators against their asymptotic-efficiency
targets."""

from .adaptive import AdaptiveTrace, adaptive_filter, error_report, s_star_limit
from .errors import (
    ConditionA0Violated,
    DegeneratePosterior,
    FisherSingular,
    FlatLikelihood,
    ForbiddenPair,
    HiddenArError,
    HorizonTooShort,
    MismatchedLengths,
    SeriesTooShort,
    UnsupportedCoordinate,
    UnsupportedSet,
    ZeroHorizon,
)
from .harness import ExperimentConfig, McReport, export, run_monte_carlo, run_replication
from .kalman import FilterTrace, filter_derivative, filter_stationary, filter_transient
from .likelihood import PosteriorSpec, bayes, log_likelihood, mle
from .model_core import (
    COORDINATES,
    FisherInfo,
    ModelParams,
    ParamProblem,
    StationaryGradient,
    StationaryQuantities,
    fisher_info,
    riccati_map,
    scalar_fisher,
    stationary,
    stationary_from,
    stationary_gradient,
    validate,
)
from .moments import MmeEstimate, MomentStats, mme, phi, s_statistics
from .onestep import (
    EstimatorTrace,
    learning_interval,
    one_step_pair,
    one_step_scalar,
)
from .simulator import Trajectory, simulate

__version__ = "0.1.0"

__all__ = [
    "AdaptiveTrace",
    "ConditionA0Violated",
    "COORDINATES",
    "DegeneratePosterior",
    "EstimatorTrace",
    "ExperimentConfig",
    "FilterTrace",
    "FisherInfo",
    "FisherSingular",
    "FlatLikelihood",
    "ForbiddenPair",
    "HiddenArError",
    "HorizonTooShort",
    "McReport",
    "MismatchedLengths",
    "MmeEstimate",
    "ModelParams",
    "MomentStats",
    "ParamProblem",
    "PosteriorSpec",
    "SeriesTooShort",
    "StationaryGradient",
    "StationaryQuantities",
    "Trajectory",
    "UnsupportedCoordinate",
    "UnsupportedSet",
    "ZeroHorizon",
    "adaptive_filter",
    "bayes",
    "error_report",
    "export",
    "filter_derivative",
    "filter_stationary",
    "filter_transient",
    "fisher_info",
    "learning_interval",
    "log_likelihood",
    "mle",
    "mme",
    "one_step_pair",
    "one_step_scalar",
    "phi",
    "riccati_map",
    "run_monte_carlo",
    "run_replication",
    "s_star_limit",
    "s_statistics",
    "scalar_fisher",
    "simulate",
    "stationary",
    "stationary_from",
    "stationary_gradient",
    "validate",
]
