"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every toolkit-specific error."""


class ShapeError(ToolkitError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(ToolkitError):
    """A matrix built from external input contains NaN or Inf entries."""


class MatrixFormatError(ToolkitError):
    """A matrix text file does not follow the documented layout."""


class DegenerateInputError(ToolkitError):
    """An input is identically zero or otherwise carries no signal."""


class KernelDivergenceError(ToolkitError):
    """An iterative kernel produced non-finite values or failed to converge.

    Carries the diagnostics collected up to the failure point so callers can
    inspect the residual history.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


def tagged(exc: ToolkitError, label: str) -> ToolkitError:
    """The same error with ``label: `` before its message and its diagnostics."""
    if isinstance(exc, KernelDivergenceError):
        return KernelDivergenceError(f"{label}: {exc}", diagnostics=exc.diagnostics)
    return type(exc)(f"{label}: {exc}")


class PreconditionError(ToolkitError):
    """An input violates a documented precondition (asymmetry, rank, range)."""


class OracleConvergenceError(ToolkitError):
    """The Jacobi SVD hit its sweep cap before its columns were orthogonal."""


class ZeroMatrixError(ToolkitError):
    """Every singular value fell below the rank cutoff."""


class InfiniteConditionError(ToolkitError):
    """A condition number was requested for a rank-deficient matrix."""


class PoisonedGradientError(ToolkitError):
    """A gradient contains NaN or Inf entries."""


class RoutingError(ToolkitError):
    """A parameter was sent down the wrong update path."""


class ConfigError(ToolkitError):
    """User-supplied configuration is invalid."""
