"""Exception types shared across the package, and the checks of plain inputs."""

import math
import operator

import numpy as np

#: 2**64 - 1: the largest integer _check_int accepts, and the SplitMix64 mask.
_MASK64 = (1 << 64) - 1

#: The real scalar types _check_real passes; bool, a subclass of int, it refuses.
_REALS = (int, float, np.integer, np.floating)


class SingletLhvError(Exception):
    """Base class for every error raised by this package."""


class InfeasibleParameters(SingletLhvError):
    """Requested (efficiency, visibility) point lies outside the model's
    feasible region."""


class DegeneratePoint(SingletLhvError):
    """The ideal point eta = v = 1, where the error-band weight is an
    indeterminate 0/0 and no finite pattern reproduces the statistics."""


class DomainError(SingletLhvError):
    """An argument is outside the mathematical domain of the function."""


class InvalidConfig(SingletLhvError):
    """A run or experiment configuration fails validation."""


class EmptyTally(SingletLhvError):
    """Estimates were requested from a tally with zero coincidences."""


def _check_int(name: str, value, lo: int = 0) -> int:
    """value as an int in [lo, 2**64 - 1]; numpy integers pass, bools and floats do not."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool) or not lo <= number <= _MASK64:
        raise InvalidConfig(
            f"{name} must be an integer at least {lo} and below 2**64, got {value!r}"
        )
    return number


def _check_real(name: str, value, array: bool = False):
    """value as a float, or as a float ndarray if array: the one rule for real input.

    Python and numpy ints and floats pass, and so does a 0-d array of them;
    with array set, so does an array or list of them of any shape.  A bool,
    complex, str, None, Fraction or other object, or an array where a scalar
    is due, raises InvalidConfig, and so does an int beyond float range.
    Each caller applies its own domain test.
    """
    if not array and isinstance(value, _REALS) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # as an array it is an object, refused below
            pass
    try:
        values = np.asarray(value)
    except ValueError:  # a ragged list
        values = np.asarray(None)
    if values.dtype.kind not in "iuf" or not (array or values.ndim == 0):
        kind = "real numbers" if array else "a real number"
        raise InvalidConfig(f"{name} must be {kind}, got {value!r}")
    return values.astype(float, copy=False) if array else float(values)


def _check_setting(name: str, value, array: bool = False):
    """An angle under _check_real: a float if a real scalar, else if array an ndarray.

    A NaN or infinite angle raises DomainError.
    """
    array = array and not isinstance(value, _REALS)
    value = _check_real(name, value, array=array)
    if not (np.all(np.isfinite(value)) if array else math.isfinite(value)):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _check_type(name: str, value, cls: type) -> None:
    """Raise InvalidConfig unless value is a cls."""
    if not isinstance(value, cls):
        raise InvalidConfig(f"{name} must be a {cls.__name__}, got {value!r}")


def _check_unit(name: str, x: float, positive: bool = False) -> None:
    """Raise DomainError unless x, a real number, lies in [0, 1], or in (0, 1] if positive."""
    x = _check_real(name, x)
    if not ((0.0 < x if positive else 0.0 <= x) and x <= 1.0):
        interval = "(0, 1]" if positive else "[0, 1]"
        raise DomainError(f"{name} must lie in {interval}, got {x!r}")
