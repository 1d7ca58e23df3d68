"""Exception hierarchy shared by every module.

All library errors derive from BaerCodeError, and most are raised as
BaerCodeError itself with a message saying what was refused.  A subclass
exists only where some caller tells it apart, by an `except` clause or by an
exit code; tests/test_public_names.py checks that rule.  The CLI maps
NoConsistentGroupError to exit code 3 (decode failure: more than b nodes
lied), OmegaRankDeficientError to exit code 4 (configuration uncertified),
and any other BaerCodeError to exit code 2 (validation).
"""


class BaerCodeError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrixError(BaerCodeError):
    """Matrix inversion / solve on a singular matrix."""


class NoConsistentGroupError(BaerCodeError):
    """Every test-group produced disagreeing estimates (the <= b assumption was violated)."""


class OmegaRankDeficientError(BaerCodeError):
    """A truncated repair-compression matrix is rank deficient; pick a larger prime."""


# -- failures the tests' reference decoders and sweeps catch by class ------

class StructureViolationError(BaerCodeError):
    """Data matrix violates the symmetric / zero-corner block structure."""


class DivisibilityViolationError(BaerCodeError):
    """alpha fails the iterative-repair grouping divisibility requirement for this d."""
