"""Exception hierarchy shared across the package, and the scalar argument checks.

Every public function either succeeds or raises an :class:`HsreconError`:
:class:`UsageError` for an argument that breaks a precondition,
:class:`DimensionError` for arrays whose shapes do not fit, and
:class:`DataError` for malformed or non-finite data.

The method's scalar settings are counts (patch size, stride, group size,
search window, iteration counts, tensor modes and ranks) and positive
reals (the weight c, the coupling tau, the ridge rho). :func:`check_int`
and :func:`check_positive` are the one place that rule is written: a count
is an integer in range, a real is positive and finite, and a bool, a
string or None is neither.
"""
import math
import numbers


class HsreconError(Exception):
    """Base class for all package errors."""


class UsageError(HsreconError):
    """Invalid argument or call against an API precondition."""


class DimensionError(HsreconError):
    """Shapes of the supplied arrays are inconsistent."""


class DataError(HsreconError):
    """Malformed or non-finite data (files, tensors, measurements)."""


def check_int(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int if it is an integer in [low, high], else :class:`UsageError`.

    NumPy integers pass; bools and floats, integral or NaN, do not.
    """
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise UsageError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def check_positive(name: str, value) -> float:
    """``value`` as a float if it is a real with 0 < value < inf, else :class:`UsageError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise UsageError(f"{name} must be a positive finite real, got {value!r}")
    return float(value)
