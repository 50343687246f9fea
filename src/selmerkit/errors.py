"""Exception types shared across the package.

Each class maps to a process exit code used by the command line driver:
hypothesis/input problems exit 2, an exhausted search region exits 3, and a
broken internal invariant exits 4.
"""


class SelmerkitError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class HypothesisError(SelmerkitError):
    """A stated working hypothesis fails for the requested input."""

    exit_code = 2


class InputError(SelmerkitError):
    """Malformed or out-of-contract input (bad records, bad parameters)."""

    exit_code = 2


class InconclusiveRegionError(SelmerkitError):
    """The configured search region is too small to certify the answer."""

    exit_code = 3


class InternalInvariantError(SelmerkitError):
    """An internal consistency check failed; indicates a bug, not bad input."""

    exit_code = 4


class AmbiguityError(InternalInvariantError):
    """An eigenspace did not cut down to dimension one."""
