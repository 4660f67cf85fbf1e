"""Exception types shared across the package.

Each argument rule lives in the library function that takes it and raises
InvalidInput.  The rules are the library's; config adds locations.
"""


class SelfJumpError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidInput(SelfJumpError, ValueError):
    """An argument breaks a rule of the function it was passed to."""


class Reducible(SelfJumpError):
    """Rate matrix is not irreducible."""


class ConfigError(SelfJumpError):
    """Configuration document violates the schema.

    ``location`` is a dotted path into the document, e.g. ``field.q0[0][1]``.
    """

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
