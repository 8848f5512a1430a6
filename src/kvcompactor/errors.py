"""Exception types shared across the package, and the field check that raises ParameterError."""

import math
import numbers


class CompactorError(Exception):
    """Base class for all library errors."""


class FormatError(CompactorError):
    """A file does not conform to its declared on-disk format."""


class TruncationError(FormatError):
    """Declared dimensions are inconsistent with the payload size."""


class DataError(CompactorError):
    """A data value violates an invariant (non-finite entries, bad ranges)."""


class ParameterError(CompactorError, ValueError):
    """An argument is outside its documented domain."""


class PlanMismatchError(CompactorError):
    """A retention plan does not fit the bundle it is applied to."""


class DegenerateFitError(CompactorError):
    """Too little variation in the calibration data to fit the curve."""


class ConvergenceError(CompactorError):
    """Curve fitting exhausted its iteration budget.

    Carries the best iterate reached so callers can inspect it.
    """

    def __init__(self, message, model=None):
        super().__init__(message)
        self.model = model


_KINDS = {"int": "an integer", "real": "a finite real number", "bool": "true or false"}


def _check_field(name: str, value, kind: str, low=None) -> None:
    """Raise ParameterError unless `value` is of `kind` ("int", "real" or "bool") and >= `low`.

    A bool is neither an int nor a real here, a str is neither, and a real
    must be finite; numpy scalars count as the Python number they hold.
    """
    if kind == "bool":
        ok = isinstance(value, bool)
    elif kind == "int":
        ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    else:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if not ok:
        raise ParameterError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    if low is not None and value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value!r}")
