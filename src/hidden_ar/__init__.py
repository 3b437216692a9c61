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
    InvalidSeed,
    MismatchedLengths,
    NonFiniteObservations,
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
    ModelParams,
    ParamProblem,
    StationaryGradient,
    StationaryQuantities,
    fisher_info,
    riccati_map,
    stationary,
    stationary_from,
    stationary_gradient,
    validate,
)
from .moments import MmeEstimate, MomentStats, mme, phi, s_statistics
from .onestep import EstimatorTrace, learning_interval, one_step
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
    "FisherSingular",
    "FlatLikelihood",
    "ForbiddenPair",
    "HiddenArError",
    "HorizonTooShort",
    "InvalidSeed",
    "McReport",
    "MismatchedLengths",
    "MmeEstimate",
    "ModelParams",
    "MomentStats",
    "NonFiniteObservations",
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
    "one_step",
    "phi",
    "riccati_map",
    "run_monte_carlo",
    "run_replication",
    "s_star_limit",
    "s_statistics",
    "simulate",
    "stationary",
    "stationary_from",
    "stationary_gradient",
    "validate",
]
