"""Exceptions shared across the package."""


class PadicDensError(Exception):
    """Base class for all padicdens errors."""


class NonIntegralExponentError(PadicDensError):
    """An exponent that must be an integer multiple of the base inertia degree is not.

    Signals either an internal bug or a wild input that slipped past validation.
    """


class NoSeriesExpansionError(PadicDensError):
    """The denominator vanishes at t = 0, so no power series in t exists."""


class WildInputError(PadicDensError):
    """A concrete prime divides a relative ramification index (wild ramification)."""


class TooLargeError(PadicDensError):
    """An exact enumeration would exceed the configured size guard."""


class SigmaParseError(PadicDensError):
    """A splitting-type string could not be parsed.

    The offending position is available as ``.position``.
    """

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class DivisibilityError(PadicDensError):
    """A base invariant does not divide the corresponding absolute invariant."""


class VerificationError(PadicDensError):
    """A runtime verification (identity check, invariant) failed."""
