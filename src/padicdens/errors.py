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
    """Bad input, the CLI's exit 2: a string that cannot be parsed, or a
    depth vector, base or value that a command cannot take.

    Not a ValueError: argparse would turn that, raised by an option type,
    into its own usage message.
    """


class DivisibilityError(PadicDensError):
    """A base invariant does not divide the corresponding absolute invariant."""


class VerificationError(PadicDensError):
    """A runtime verification (identity check, invariant) failed."""
