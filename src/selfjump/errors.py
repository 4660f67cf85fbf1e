"""Exception types shared across the package."""


class SelfJumpError(Exception):
    """Base class for domain errors raised by this package."""


class NegativeOffDiagonal(SelfJumpError):
    """A rate matrix has a negative off-diagonal entry."""


class RowSumNonzero(SelfJumpError):
    """A rate matrix has a row whose entries do not sum to zero."""


class NegativeRate(SelfJumpError):
    """A rate field produced a negative jump rate."""


class SupportMismatch(SelfJumpError):
    """Declared support disagrees with the rates the field can produce."""


class RateBoundExceeded(SelfJumpError):
    """A rate exceeded the field's declared upper bound."""


class InvalidState(SelfJumpError):
    """State label outside 1..d."""


class OutOfRange(SelfJumpError):
    """Query time outside the trajectory's (0, horizon] window."""


class NegativeInput(SelfJumpError):
    """Argument must be nonnegative."""


class Reducible(SelfJumpError):
    """Rate matrix is not irreducible."""


class WrongDimension(SelfJumpError):
    """Operation is only defined for a specific state-space size."""


class ZeroSamples(SelfJumpError):
    """At least one Monte Carlo sample is required."""


class ConfigError(SelfJumpError):
    """Configuration document violates the schema.

    ``location`` is a dotted path into the document, e.g. ``field.q0[0][1]``.
    """

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
