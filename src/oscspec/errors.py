"""Exception types shared across the package.

A class exists only where a caller tells it apart.  The CLI exits 1 on
NoConvergence and 3 on ResolutionError and reports an InsufficientData rate
fit as null; quantize.iterate prefixes a NoConvergence with its step.
DomainError marks an argument outside where a quantity is defined.  Each
class is also a ValueError or RuntimeError, so a caller that does not know
this package can still catch it.
"""


class OscspecError(Exception):
    """Base class for every error raised by this package."""


class NoConvergence(OscspecError, RuntimeError):
    """A solve failed: an iteration budget ran out, a root bracket could not
    be found, or merged parity levels do not interlace."""


class DomainError(OscspecError, ValueError):
    """An argument lies outside the domain where the quantity is defined."""


class InsufficientData(OscspecError, ValueError):
    """Not enough data points to perform the requested fit."""


class ResolutionError(OscspecError, RuntimeError):
    """Grid refinement levels disagree beyond the requested tolerance."""
