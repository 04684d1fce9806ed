"""Exception types shared across the package."""


class OscspecError(Exception):
    """Base class for every error raised by this package."""


class TailDivergence(OscspecError, ValueError):
    """A tail exponent at or below one makes the kernel sums diverge."""


class BracketFailure(OscspecError, RuntimeError):
    """No sign-changing interval was found within the expansion limits."""


class NoConvergence(OscspecError, RuntimeError):
    """An iterative solve exhausted its iteration budget."""


class DomainError(OscspecError, ValueError):
    """An argument lies outside the domain where the quantity is defined."""


class InsufficientData(OscspecError, ValueError):
    """Not enough data points to perform the requested fit."""


class ConditionViolation(OscspecError, ValueError):
    """An offset sequence fails one of the admissibility conditions."""

    def __init__(self, message: str, k: int | None = None):
        super().__init__(message)
        self.k = k


class InterlacingViolation(OscspecError, RuntimeError):
    """Merged even/odd levels are not strictly increasing."""


class NotSorted(OscspecError, ValueError):
    """Input that must be strictly increasing is not."""


class ResolutionError(OscspecError, RuntimeError):
    """Grid refinement levels disagree beyond the requested tolerance."""
