"""Exception hierarchy shared by all modules."""

import math
from contextlib import contextmanager


class QcvxError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(QcvxError):
    """Operands live in different ambient dimensions."""


class ArityMismatch(QcvxError):
    """Wrong number of arguments for a polarized functional."""


class UnsupportedMix(QcvxError):
    """Ball/polytope combination that has no exact vertex representation."""


class NonpositiveScale(QcvxError):
    """Homothety factor must be strictly positive."""


class EmptyBody(QcvxError):
    """Operation undefined on the empty body (support would be -inf)."""


class OriginNotInterior(QcvxError):
    """Polarity requires the origin in the interior of the body."""


class IndexOutOfRange(QcvxError):
    """Quermassintegral index outside [0, n]."""


class SingularSystem(QcvxError):
    """Polynomial-fit grid produced a rank-deficient linear system."""


class HeightOutOfRange(QcvxError):
    """Level-set height outside (0, 1]."""


class DivergentIntegral(QcvxError):
    """Profile tail is not integrable at the requested order."""


class GridTooCoarse(QcvxError):
    """Lattice does not cover the supports involved."""


class NotRotationInvariant(QcvxError):
    """A rotation-invariant function was required."""


class NotLogConcave(QcvxError):
    """A log-concave function was required."""


class NotRegular(QcvxError):
    """Rescaling requires a regular function (continuous, strictly radially
    decreasing, vanishing at infinity)."""


class NonInvertibleProfile(QcvxError):
    """Size profile could not be inverted at the requested value."""


class DegenerateBody(QcvxError):
    """Body is lower-dimensional where full dimension was required."""


class NumericalFailure(QcvxError):
    """A computed value is NaN, infinite, or clearly of the wrong sign,
    typically because the input spans more scales than the tolerances allow."""


class InputParse(QcvxError):
    """Malformed JSON input (CLI exit code 2)."""


@contextmanager
def parsing_input():
    """The JSON boundary (a ``with`` block, or called, a decorator): a ValueError,
    TypeError, KeyError or AttributeError inside becomes ``InputParse``."""
    try:
        yield
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise InputParse(str(exc)) from exc


def check_scale(lam: float) -> None:
    """The one rule for a homothety factor: finite (else ValueError) and
    positive (else ``NonpositiveScale``)."""
    if not math.isfinite(lam):
        raise ValueError(f"scale factor must be finite, got {lam}")
    if lam <= 0:
        raise NonpositiveScale(f"scale factor must be positive, got {lam}")
