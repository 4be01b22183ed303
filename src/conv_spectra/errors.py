"""Exception hierarchy.

Grouping matters for the CLI exit-code contract: ValidationError and its
subclasses map to exit 2, IoFailure and OS-level errors to exit 1, and
numerical failures (NoConvergence, ImaginaryResidual, spectrum deviation) to
exit 3.
"""


class ConvSpectraError(Exception):
    """Base class for all library errors."""


class ValidationError(ConvSpectraError):
    """Bad input data or incompatible arguments."""


class KernelLargerThanInput(ValidationError):
    """Kernel support exceeds the feature map in at least one axis."""


class NonFiniteEntry(ValidationError):
    """An array contains NaN or Inf."""


class ChannelCountNotOne(ValidationError):
    """Operation requires a single input and output channel."""


class ShapeMismatch(ValidationError):
    """Array shape incompatible with the kernel / feature-map pair."""


class BadSupport(ValidationError):
    """Requested support window does not fit inside the kernel."""


class SizeGuard(ValidationError):
    """Dense construction would exceed the configured size cap."""


class WrongRank(ValidationError):
    """Array file does not hold a 4D tensor."""


class UnsupportedDtype(ValidationError):
    """Array file dtype is not little-endian float32/float64."""


class UnsupportedOrder(ValidationError):
    """Array file payload is Fortran-ordered."""


class BadHeader(ValidationError):
    """Array file header is malformed or inconsistent with the payload."""


class IoFailure(ConvSpectraError):
    """Underlying OS-level read/write failure."""


class NoConvergence(ConvSpectraError):
    """LAPACK's SVD did not converge."""


class ImaginaryResidual(ConvSpectraError):
    """Inverse transform of a clipped kernel left a non-negligible imaginary part.

    Exact arithmetic gives a real result, so this signals an implementation bug
    rather than bad input.
    """
