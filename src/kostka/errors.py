"""Exception types shared across the package."""


class KostkaError(Exception):
    """Base class for every error this package raises deliberately."""


class UnsupportedRankError(KostkaError):
    """Requested a (type, rank) combination outside the supported bounds."""


class NoSolutionError(KostkaError):
    """A matrix to invert is singular."""


class EmptyNodeSetError(KostkaError):
    """An operation that needs a nonempty set of Dynkin nodes got an empty one."""


class BudgetExceededError(KostkaError):
    """A Weyl orbit would exceed ``weyl.MAX_ORBIT`` points, sized before it is walked."""


class NotDominantError(KostkaError):
    """A weight that must be dominant is not."""


class NotInConeError(KostkaError):
    """The weight pair lies outside the dominance cone."""


class NotInLeviConeError(KostkaError):
    """The weight pair lies outside the Levi's dominance cone."""


class OverlappingLevisError(KostkaError):
    """Levi node sets that must be pairwise disjoint overlap."""


class RankBoundExceededError(KostkaError):
    """Brute-force vertex enumeration refused: rank above its bound."""


class CapExceededError(KostkaError):
    """A representation or a slice polytope exceeds its size cap."""


class NotInRootLatticeError(KostkaError):
    """Multiplicity computations need integral weight inputs."""


class InvariantError(KostkaError):
    """A result broke an invariant the mathematics guarantees: a bug, not bad input."""
