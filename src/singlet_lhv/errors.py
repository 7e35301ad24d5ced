"""Exception types shared across the package, and the checks of plain inputs.

ModelParams is checked by model._check_params, since model imports this module.
"""

import math
import operator

#: 2**64 - 1: the largest integer _check_int accepts, and the SplitMix64 mask.
_MASK64 = (1 << 64) - 1


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


def _check_finite(name: str, value) -> None:
    """Raise InvalidConfig unless value is a finite real number."""
    try:
        finite = math.isfinite(value)
    except TypeError:
        finite = False
    if not finite:
        raise InvalidConfig(f"{name} must be a finite real number, got {value!r}")


def _check_unit(name: str, x: float, positive: bool = False) -> None:
    """Raise DomainError unless x lies in [0, 1], or in (0, 1] if positive."""
    if not ((0.0 < x if positive else 0.0 <= x) and x <= 1.0):
        interval = "(0, 1]" if positive else "[0, 1]"
        raise DomainError(f"{name} must lie in {interval}, got {x!r}")
