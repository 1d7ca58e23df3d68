"""Exception hierarchy shared by every module.

All library errors derive from BaerCodeError so callers can catch one base
class.  The CLI maps NoConsistentGroupError to exit code 3 (decode failure),
OmegaRankDeficientError to exit code 4 (configuration uncertified), and any
other BaerCodeError to exit code 2 (validation).
"""


class BaerCodeError(Exception):
    """Base class for all errors raised by this package."""


# -- field / matrix arithmetic -------------------------------------------

class NotPrimeError(BaerCodeError):
    """Field modulus is not a prime >= 3."""


class ZeroToNegativePowerError(BaerCodeError):
    """Inverse of zero requested (zero raised to a negative power)."""


class DuplicatePointError(BaerCodeError):
    """Evaluation points of a Vandermonde matrix must be distinct."""


class ZeroPointError(BaerCodeError):
    """Evaluation points of a Vandermonde matrix must be nonzero."""


class SingularMatrixError(BaerCodeError):
    """Matrix inversion / solve on a singular matrix."""


class DimensionMismatchError(BaerCodeError):
    """Operand shapes are incompatible."""


# -- parameter validation ------------------------------------------------

class OrderingViolationError(BaerCodeError):
    """Parameter ordering 2b < k <= d_1 <= ... <= d_delta violated."""


class DTooLargeError(BaerCodeError):
    """Largest helper count exceeds n-1 (helpers must be distinct surviving nodes)."""


class AlphaNotMultipleError(BaerCodeError):
    """Per-node capacity alpha is not a multiple of lcm(d_i - 2b)."""


class DNotInDError(BaerCodeError):
    """Requested helper count d is not in the admissible set D."""


class GammaMissingDError(BaerCodeError):
    """A repair-bandwidth map does not cover every d in D."""


class DivisibilityViolationError(BaerCodeError):
    """alpha fails the iterative-repair grouping divisibility requirement for this d."""


class FieldTooSmallError(BaerCodeError):
    """Field cannot supply n distinct nonzero evaluation points (needs p >= n+1)."""


# -- encoding ------------------------------------------------------------

class WrongMessageLengthError(BaerCodeError):
    """Source message length differs from the storage capacity F_mbr."""


class BadNodeIndexError(BaerCodeError):
    """Node index outside 1..n."""


class StructureViolationError(BaerCodeError):
    """Data matrix violates the symmetric / zero-corner block structure."""


# -- repair & reconstruction ---------------------------------------------

class NoConsistentGroupError(BaerCodeError):
    """Every test-group produced disagreeing estimates (the <= b assumption was violated)."""


class OmegaRankDeficientError(BaerCodeError):
    """A truncated repair-compression matrix is rank deficient; pick a larger prime."""


class SingularReducedSystemError(BaerCodeError):
    """Reduced per-group linear system could not be solved."""


class UnresolvedEntriesError(BaerCodeError):
    """Repair session finalized while some entries are still unresolved."""


class PlanMismatchError(BaerCodeError):
    """Repair data does not fit the iteration schedule in force."""


class NonIntegralDegreeError(BaerCodeError):
    """Bipartite helper assignment impossible: alpha/d is not an integer."""


# -- simulator -----------------------------------------------------------

class NodeAlreadyFailedError(BaerCodeError):
    """fail event targets a node that is already failed."""


class RepairOfLiveNodeError(BaerCodeError):
    """repair event targets a node that has not failed."""


class NotEnoughHelpersError(BaerCodeError):
    """Fewer than d live candidate helpers are available."""
