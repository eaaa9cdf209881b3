"""Exception types shared across the package."""


class MonoidRingError(Exception):
    """Base class for all analysis errors."""


class ZeroGenerator(MonoidRingError):
    """A generator list contains the zero vector."""


class NotPointed(MonoidRingError):
    """The cone contains a line."""


class NotPositive(MonoidRingError):
    """The monoid has a nonzero invertible element."""


class NotInCone(MonoidRingError):
    """A vector lies outside the cone."""


class NotSublattice(MonoidRingError):
    """Quotient requested for lattices without containment."""


class DegenerateFace(MonoidRingError):
    """A face lattice assignment, or a set of rows, is not of full rank."""


class OutOfRange(MonoidRingError):
    """A degree vector or a face lies outside the admissible region."""


class NotUpClosed(MonoidRingError):
    """A face filter is not closed under going up."""


class BadFilter(MonoidRingError):
    """A filter misses the full cone or is not up-closed."""


class TooLarge(MonoidRingError):
    """An enumeration exceeded its configured cap; refusing a partial answer."""


class HypothesisUnverified(MonoidRingError):
    """The interior-points hypothesis failed within the checked range."""


class NotCM(MonoidRingError):
    """An operation requires a Cohen-Macaulay input."""


class VerificationFailed(MonoidRingError):
    """Geometric construction verification failed after all retries."""


class ParseError(MonoidRingError):
    """An input file does not match the expected format."""
