"""Exception hierarchy shared by the library and the command line tool.

Every error the library raises deliberately derives from :class:`ChaosidError`.
The command line tool maps the three branches of the hierarchy onto process
exit codes: configuration and file problems exit with 2, violated data
preconditions exit with 3, and numerical divergence exits with 4.
"""


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

    exit_code = 3


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
