"""Exception hierarchy shared by all convexval modules."""


class ConvexValError(Exception):
    """Base class for all library errors."""


class EmptyInput(ConvexValError):
    """A construction received an empty point list."""


class MixedDimensions(ConvexValError):
    """Input points do not share a single ambient dimension."""


class DimensionMismatch(ConvexValError):
    """Two geometric objects live in different ambient spaces."""


class WrongDimension(ConvexValError):
    """An operation requires a specific ambient dimension."""


class NegativeFactor(ConvexValError):
    """Dilation factors must be nonnegative."""


class NonpositiveScale(ConvexValError):
    """Decomposition scale parameters must be strictly positive."""


class DependentBasis(ConvexValError):
    """Simplex basis vectors must be linearly independent."""


class UnsupportedDimension(ConvexValError):
    """General-position geometry is only implemented up to dimension 3."""


class GuardExceeded(ConvexValError):
    """A lattice enumeration or a grading table would exceed its guard."""


class DivisionUnsupported(ConvexValError):
    """Neither carrier of a function handle allows division by factorials."""


class ReconstructionFailure(ConvexValError):
    """Extracted components do not reconstruct the source function.

    This signals that the vanishing hypothesis was false for the requested
    degree, or that the degree bound was too small.
    """


class NonInvariantOnClasses(ConvexValError):
    """A translation-variant valuation was applied to translation classes."""


class ParseError(ConvexValError):
    """Malformed polytope or formal-sum input file."""


class InvariantViolation(ConvexValError):
    """An internal invariant of an exact computation does not hold.

    Raised in place of `assert`, so the check also runs under `python -O`.
    """
