"""Exception types shared across the package."""


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
