"""Exception hierarchy shared across the package, and the argument checks.

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

Arrays go through :func:`check_array`: bool, integer and real float
arrays become float64 (a float64 array is not copied); any other dtype,
numeric strings included, or input that is no array at all raises
:class:`UsageError`, the wrong number of axes :class:`DimensionError`,
and a NaN or an infinity, where values must be finite, :class:`DataError`.
"""
import math
import numbers

import numpy as np


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


def check_array(name: str, value, ndim: int | None, finite: bool = True) -> np.ndarray:
    """``value`` as a float64 array of ``ndim`` axes (None: any); ``finite`` scans the values."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as e:  # a ragged list, say
        raise UsageError(f"{name} must be a real array: {e}") from None
    if array.dtype.kind not in "biuf":
        raise UsageError(f"{name} must be a real array, got dtype {array.dtype}")
    if ndim is not None and array.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {array.shape}")
    array = array.astype(np.float64, copy=False)
    if finite and not np.all(np.isfinite(array)):
        raise DataError(f"{name} contains non-finite values")
    return array
