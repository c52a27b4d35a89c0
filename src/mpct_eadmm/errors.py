"""Exception hierarchy for the MPCT solver package."""


class MpctError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MpctError):
    """Inconsistent array dimensions in problem data."""


class ProblemMismatch(MpctError):
    """Offline data used with a problem other than the one it was built for."""


class NonPositiveWeight(MpctError):
    """A cost or penalty entry that must be strictly positive is not."""


class EmptyBox(MpctError):
    """Box bounds define an empty (or degenerate) feasible interval."""


class HorizonTooShort(MpctError):
    """Prediction horizon below the minimum supported value (N >= 2)."""


class RankDeficientG2(MpctError):
    """The steady-state constraint matrix is numerically rank deficient."""


class FactorizationFailure(MpctError):
    """Block Cholesky factorization hit a non-positive pivot."""


class SingularKkt(MpctError):
    """A dense KKT system could not be solved."""


class NumericalBreakdown(MpctError):
    """A non-finite value appeared in the solver iterates."""


class KernelBuildFailure(MpctError):
    """The compiled iteration kernel could not be built (no C compiler, or it failed)."""


class MissingWarmstartGain(MpctError):
    """Warmstarting was asked of offline data built without the warmstart gain."""


class SingularConfiguration(MpctError):
    """Pendulum dynamics evaluated at a configuration with vanishing denominator."""


class ArtifactError(MpctError):
    """Malformed, corrupted or incompatible offline artifact file."""


class ConfigError(MpctError):
    """Invalid run configuration; the message carries the offending field path."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
