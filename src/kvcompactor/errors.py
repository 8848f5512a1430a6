"""Exception types shared across the package, and the two argument checks: one for a scalar, one for a matrix."""

import math
import numbers

import numpy as np


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


def _check_field(name: str, value, kind: str, interval: str = None, error=ParameterError) -> None:
    """Raise `error` unless `value` is of `kind` ("int", "real" or "bool") and lies in `interval`.

    A bool is neither an int nor a real here, a str is neither, and a real
    must be finite as a float; numpy scalars count as the number they hold.
    `interval` is open or closed at each end, as in "(0, 1]" or "[1, inf)",
    and may hold a computed bound (f"[{d}, inf)"); None checks the kind
    alone. `error` is ParameterError for an argument and DataError for a
    value read from a file.
    """
    if kind == "bool":
        ok = isinstance(value, bool)
    elif kind == "int":
        ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    else:  # finiteness is tested on the value as a float, never against a bound cast to a narrow numpy dtype
        try:
            ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
        except OverflowError:  # an int beyond float range
            ok = False
    if not ok:
        raise error(f"{name} must be {_KINDS[kind]}, got {value!r}")
    if interval is None:
        return
    low_text, high_text = interval[1:-1].split(",")
    low, high, low_open = float(low_text), float(high_text), interval[0] == "("
    if (value > low if low_open else value >= low) and (value < high if interval[-1] == ")" else value <= high):
        return
    if high == float("inf"):
        raise error(f"{name} must be {'>' if low_open else '>='} {low_text}, got {value!r}")
    raise error(f"{name} must be in {interval}, got {value!r}")


def _check_matrix(name: str, value) -> np.ndarray:
    """`value` as an array; ParameterError unless it is 2-D with at least one row and one column."""
    value = np.asarray(value)
    if value.ndim != 2 or min(value.shape) < 1:
        raise ParameterError(f"{name} must be 2-D with at least one row and one column, got shape {value.shape}")
    return value
