"""Exception hierarchy shared by all cccmap modules."""

from __future__ import annotations


class CccmapError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(CccmapError):
    """Malformed or out-of-domain input (wrong lengths, non-finite values, bad parameters)."""


class DegenerateVariance(CccmapError):
    """An operation that needs spread in the data received constant input."""


class Singularity(CccmapError):
    """A denominator that the underlying formula requires to be nonzero is exactly zero."""


class NoConjugate(CccmapError):
    """The requested conjugate band position does not exist (only defined where the
    lower envelope is negative, i.e. theta * x > 1)."""


class TooLarge(CccmapError):
    """A requested size is past its guard: an exhaustive enumeration past the factorial
    guard, or a region table or theta grid past the cap on its cells."""


class NotConverged(CccmapError):
    """The iterative solver exhausted its budget; carries the best iterate found."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


# Process exit codes used by the CLI.
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# Input validation problems (exit 2) versus numerical failures (exit 3).
INPUT_ERRORS = (InvalidInput, TooLarge)
NUMERIC_ERRORS = (DegenerateVariance, Singularity, NoConjugate, NotConverged)
