"""Exception hierarchy shared by all clusterforge modules."""


class ClusterForgeError(Exception):
    """Base class for all errors raised by this package."""


class NotSkewSymmetrizable(ClusterForgeError):
    """No positive integer diagonal D makes diag(d)*B skew-symmetric."""


class InexactDivision(ClusterForgeError):
    """A polynomial division that must be exact left a remainder."""


class SignCoherenceViolation(ClusterForgeError):
    """A C-matrix column was mixed-sign or zero; indicates a bug."""


class ConsistencyError(ClusterForgeError):
    """Two independent computations of the same quantity disagree."""


class IndexOrder(ClusterForgeError):
    """Pair coefficients a(i,j), b(i,j) require i <= j."""


class BadParameters(ClusterForgeError):
    """Family parameters outside their valid range."""


class NotSymmetric(ClusterForgeError):
    """Quiver failed the symmetry checks required by a specialized formula."""


class RedStepEncountered(ClusterForgeError):
    """A stabilization run hit a red mutation; the run assumes green steps."""


class ParseError(ClusterForgeError):
    """Malformed quiver file, sequence string, or monomial string."""
