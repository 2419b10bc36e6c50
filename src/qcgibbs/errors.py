"""Exception types for numerical and contract failures."""


class QCGibbsError(Exception):
    """Base class for all package-specific errors."""


class ResourceError(QCGibbsError):
    """A state-enumeration or level-count cap would be exceeded."""


class AccuracyError(QCGibbsError):
    """A computed quantity failed its accuracy contract (eigensolver
    Richardson estimate above tolerance, or a cross-check mismatch)."""


class TruncationError(QCGibbsError):
    """The spectrum holds too few levels for the requested inverse
    temperature; the Boltzmann tail is not negligible."""


class IntegrabilityError(QCGibbsError):
    """The classical configuration integral does not converge."""


class TailModelError(QCGibbsError):
    """The fitted eigenvalue growth law is unusable (non-positive
    exponent: the spectrum does not grow)."""


class ContractError(QCGibbsError):
    """An operation was invoked outside its stated contract."""


class ConvergenceError(QCGibbsError):
    """An iterative scheme hit its iteration cap before converging."""


#: what fails a grid point rather than the run (ArithmeticError: a float overflow)
NUMERICAL_ERRORS = (ArithmeticError, QCGibbsError)
