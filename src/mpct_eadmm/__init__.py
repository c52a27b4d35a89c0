"""Sparse extended-ADMM solver for the MPC-for-tracking formulation.

The package splits into an offline part (problem validation and
precomputation whose storage grows linearly in the prediction horizon), an
online matrix-free iteration, a dense reference oracle used for validation,
the inverted-pendulum closed-loop benchmark and a batch CLI.
"""

from .errors import (
    ArtifactError,
    ConfigError,
    DimensionMismatch,
    EmptyBox,
    FactorizationFailure,
    HorizonTooShort,
    KernelBuildFailure,
    MissingWarmstartGain,
    MpctError,
    NonPositiveWeight,
    NumericalBreakdown,
    ProblemMismatch,
    RankDeficientG2,
    SingularConfiguration,
    SingularKkt,
)
from .offline import (
    OfflineData,
    WarmstartGain,
    build_offline,
    compute_rho_upper_bound,
    compute_warmstart_gain,
)
from .problem import (
    CostWeights,
    MpctConfig,
    PenaltyParams,
    SystemModel,
    ValidatedProblem,
    build_rho,
    validate_problem,
)
from .solver import (
    SolverState,
    cold_start,
    eadmm_solve,
    warmstart_predict,
)

__version__ = "0.1.0"

__all__ = [
    "ArtifactError",
    "ConfigError",
    "CostWeights",
    "DimensionMismatch",
    "EmptyBox",
    "FactorizationFailure",
    "HorizonTooShort",
    "KernelBuildFailure",
    "MissingWarmstartGain",
    "MpctConfig",
    "MpctError",
    "NonPositiveWeight",
    "NumericalBreakdown",
    "OfflineData",
    "PenaltyParams",
    "ProblemMismatch",
    "RankDeficientG2",
    "SingularConfiguration",
    "SingularKkt",
    "SolverState",
    "SystemModel",
    "ValidatedProblem",
    "WarmstartGain",
    "build_offline",
    "build_rho",
    "cold_start",
    "compute_rho_upper_bound",
    "compute_warmstart_gain",
    "eadmm_solve",
    "validate_problem",
    "warmstart_predict",
]
