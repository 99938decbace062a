"""Exception hierarchy shared by the library and the command line tool.

Every error the library raises deliberately derives from :class:`ChaosidError`.
The command line tool maps the three branches of the hierarchy onto process
exit codes: configuration and file problems exit with 2, violated data
preconditions exit with 3, and numerical divergence exits with 4.

Every entry point and value type checks its arguments by the four rules at
the end of this module, and a value type stores what the rule returns, so a
value read from a file meets the rules of one passed in Python, and one that
breaks a rule raises :class:`InvalidValue` naming it: a count, index, delay or
dimension must be a Python or numpy integer (not a bool, nor an integral
float); ``dt`` (above 0), a term parameter or a ridge must be a finite Python
or numpy number (not a bool, nor a string), kept as a Python float; and a
series, point set, matrix or initial state must hold no NaN or infinity.  An
integer too large for a double is not finite.
"""

import numpy as np


class ChaosidError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class InputError(ChaosidError):
    """A file, path, or configuration value is unusable."""

    exit_code = 2


class ConfigError(InputError):
    """A configuration key or value is invalid."""


class NotFoundError(InputError):
    """A referenced file, fixture, or channel does not exist."""


class InvalidValue(InputError, ValueError):
    """An argument or data value is outside its documented range.

    It is also a :class:`ValueError`, so callers that catch that still work.
    """


class DataError(ChaosidError):
    """Input data violates a documented precondition."""


class ZeroVariance(DataError):
    """A channel is constant, so correlation statistics are undefined."""


class InsufficientData(DataError):
    """Too few samples, states, or segments for the requested operation."""


class WindowTooSmall(DataError):
    """A segment window is shorter than the embedding requires."""


class LengthMismatch(DataError):
    """Two point sets that must align have different lengths."""


class DegenerateSegment(DataError):
    """All points of a segment coincide, leaving no shape to match."""


class RankDeficient(DataError):
    """The regression matrix is numerically rank deficient."""


class OverflowUnsafe(DataError):
    """A forcing term would overflow over the requested horizon."""


class NoScalingRegion(DataError):
    """No stretch of the correlation integral has a stable slope."""


class ChannelMismatch(DataError):
    """Channel counts of two series disagree."""


class NonFiniteState(ChaosidError):
    """Integration or simulation produced NaN or infinity."""

    exit_code = 4

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


def _integer(name, value, low=None):
    """``value`` as an int: a Python or numpy integer but not a bool, and at
    least ``low`` when that is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidValue(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise InvalidValue(f"{name} must be >= {low}, got {value}")
    return int(value)


def _real(name, value, low=-np.inf, rule="a finite number"):
    """``value`` as a Python float: a Python or numpy number, not a bool,
    finite as a double and above ``low``; anything else raises InvalidValue."""
    if isinstance(value, (float, int, np.floating, np.integer)) and not isinstance(value, bool):
        try:
            if low < (number := float(value)) < np.inf:
                return number
        except OverflowError:  # an integer whose repr would print every digit
            raise InvalidValue(
                f"{name} must be {rule}, got an integer too large for a double") from None
    raise InvalidValue(f"{name} must be {rule}, got {value!r}")


def _positive(name, value):
    """``value`` as a Python float; one that is no finite number above 0 raises InvalidValue."""
    return _real(name, value, 0.0, "finite and positive")


def _finite(name, values):
    """``values`` as a float array; NaN, infinity or an integer too large for a
    double raises InvalidValue."""
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError:
        raise InvalidValue(f"{name} holds an integer too large for a double") from None
    if not np.isfinite(array).all():
        raise InvalidValue(f"{name} holds NaN or infinity; it must be finite")
    return array
