"""Exception hierarchy shared across the package."""


class PadeLabError(Exception):
    """Base class for all errors raised by pade_lab."""


class OrderRangeError(PadeLabError):
    """Approximation order outside the supported range."""


class ShapeError(PadeLabError):
    """Input array has an incompatible shape."""


class SingularDenominatorError(PadeLabError):
    """The denominator polynomial evaluated at the matrix is numerically singular."""


class MagnitudeError(PadeLabError):
    """Matrix exponential overflows for the requested ``A t``."""


class BoundsError(PadeLabError):
    """Requested truncation index or parameter outside supported bounds."""


class DivergenceError(PadeLabError):
    """Series evaluated at or beyond its estimated convergence radius."""


class InfeasibilityError(PadeLabError):
    """No step size satisfies the requested accuracy condition."""


class AssumptionViolationError(PadeLabError):
    """A standing assumption (e.g. ``norm(A T) >= 1``) does not hold."""


class StrategyError(PadeLabError):
    """Parameter-selection strategy incompatible with the matrix class."""


class ConsistencyError(PadeLabError):
    """Internal layout arithmetic failed a self-check."""


class DegenerateTargetError(PadeLabError):
    """Terminal state has zero norm; normalized quantities are undefined."""


class SingularBlockError(PadeLabError):
    """A diagonal block of the block system is numerically singular."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class SchemeError(PadeLabError):
    """A discretization scheme not in ``pade_core.SCHEME_NAMES``."""


class SizeError(PadeLabError):
    """Problem dimension exceeds the supported desk-scale cap."""


class SolveResidualError(PadeLabError):
    """Solver residual exceeded its contract tolerance."""


class ConvergenceError(PadeLabError):
    """Iterative estimator failed to converge within its iteration budget."""


class ClassificationError(PadeLabError):
    """Matrix does not belong to the requested analysis class."""


class CompositionError(PadeLabError):
    """Block-encoding composition with incompatible parts."""


class LayoutError(PadeLabError):
    """Register sizes are not the powers of two the circuit layout needs."""


class SearchError(PadeLabError):
    """A parameter search exhausted its cap without success."""


class ProblemFormatError(PadeLabError):
    """A problem document is not valid JSON, lacks a field or holds a malformed one."""


class UsageError(PadeLabError):
    """Malformed command-line invocation."""
