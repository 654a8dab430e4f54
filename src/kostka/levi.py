"""Lifting weight pairs from Levi subsystems into the ambient system.

Levi-local weights are tuples indexed by the Levi's own positions 1..|I|
after sorting its ambient node ids; every function that crosses the
boundary takes the node set explicitly, so ambient and local coordinates
can never be silently confused.  A local weight, read by ``rootdata._weight``
with the Levi's nodes, is the right-hand side of the Levi's forest solve
(``rootdata._levi_solve``), in the order of its nodes, as it is.  A lift is held
as the solve leaves it, numerators over its denominator (ints for an integer
pair), and a Fraction is made only where a lift is returned, once per entry (``_at``).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cone import Vertex, _require_dominant, vertex
from .errors import NotInLeviConeError, OverlappingLevisError
from .rootdata import RootSystem, _levi_solve, _weight, is_dominant, node_set


class LeviWeightPair(namedtuple("LeviWeightPair", "levi lambda_fw mu_fw")):
    """A weight pair living on a Levi subsystem, in local coordinates."""

    __slots__ = ()


def restrict(rs: RootSystem, levi, w) -> tuple:
    """Local coordinates of an ambient weight on the Levi's nodes."""
    levi = node_set(rs, levi)
    w = _weight(rs, w)
    return tuple(w[n - 1] for n in levi)


def extend_by_zero(rs: RootSystem, levi, lam_local) -> tuple:
    """Ambient weight agreeing with the local one on the Levi, zero elsewhere."""
    levi = node_set(rs, levi)
    lam_local = _weight(rs, lam_local, levi)
    _require_dominant(lam_local)
    return _at(dict(zip(levi, lam_local)), rs.nodes())


def levi_root_coords(rs: RootSystem, levi, w_local) -> tuple:
    """Coefficients of the Levi's simple roots expressing a local weight: c over d
    from the vertex solve of `cone.vertex` (``_levi_solve``), in O(|levi|) on the
    Levi's Dynkin forest with no block inverse."""
    levi = node_set(rs, levi)
    c, d, _ = _levi_solve(rs, _weight(rs, w_local, levi), levi)
    return tuple(Fraction(x, d) for x in c)


def levi_cone_contains(rs: RootSystem, levi, lam_local, mu_local) -> bool:
    """Membership in the Levi's own cone, the conjunction over its simple factors:
    whether the Levi lift (``_lift``) accepts the pair."""
    try:
        _lift(rs, node_set(rs, levi), lam_local, mu_local)
    except NotInLeviConeError:
        return False
    return True


def _lift(rs: RootSystem, inner: tuple[int, ...], lam_local, mu_local) -> tuple[dict, dict, int]:
    # the lift of a pair on the checked Levi `inner` from one solve, zero where absent: lam as
    # {node: value}, and mu as {node: numerator} over the solve's d, d mu on `inner` and minus
    # c's pairings at its outside neighbours.  The pair is in the inner cone when both weights
    # and c are dominant
    lam_local, mu_local = _weight(rs, lam_local, inner), _weight(rs, mu_local, inner)
    c, d, pairings = _levi_solve(rs, [a - b for a, b in zip(lam_local, mu_local)], inner)
    if not (is_dominant(lam_local) and is_dominant(mu_local) and is_dominant(c)):
        raise NotInLeviConeError(
            f"({lam_local}, {mu_local}) is not in the cone of {inner}")
    mu = {k: -p for k, p in pairings.items()}
    mu.update(zip(inner, [d * y for y in mu_local]))
    return dict(zip(inner, lam_local)), mu, d


def _at(w: dict, nodes, d: int | None = None) -> tuple:
    # a weight held as {node: numerator} over d (as it is if d is None), zero where absent,
    # read on `nodes`: the one place a lift's entries are made Fractions, one each
    zero = Fraction(0)
    return tuple(Fraction(w[n], d) if w.get(n) else zero for n in nodes)


def induce_between(rs: RootSystem, inner, outer, lam_local, mu_local) -> tuple[tuple, tuple]:
    """Lift a pair from an inner Levi to an outer one containing it.

    The lifted pair keeps the same simple-root coefficients c: the first weight
    is the extension by zero, the second that extension minus C^T c, read from
    the one solve of c: mu on the inner Levi, minus c's pairings (over d) at
    its outside neighbours, and zero elsewhere.
    """
    inner = node_set(rs, inner)
    outer = node_set(rs, outer)
    if not set(inner) <= set(outer):
        raise ValueError(f"{inner} is not contained in {outer}")
    lam, mu, d = _lift(rs, inner, lam_local, mu_local)
    return _at(lam, outer), _at(mu, outer, d)


def induce(rs: RootSystem, pair: LeviWeightPair) -> tuple[tuple, tuple]:
    """Lift a Levi weight pair all the way up to the ambient system."""
    return induce_between(rs, pair.levi, rs.nodes(), pair.lambda_fw, pair.mu_fw)


def induce_vertex(rs: RootSystem, levi, lam_local, inner) -> Vertex:
    """Lift the slice-polytope vertex of a Levi weight determined by `inner`.

    The vertex inside the Levi lifts to the ambient vertex solve on the
    extension by zero, which is what this returns.
    """
    levi = node_set(rs, levi)
    inner = node_set(rs, inner)
    if not set(inner) <= set(levi):
        raise ValueError(f"{inner} is not contained in {levi}")
    return vertex(rs, extend_by_zero(rs, levi, lam_local), inner)


def induction_composes(rs: RootSystem, pair: LeviWeightPair, mid) -> bool:
    """Whether lifting through an intermediate Levi agrees with lifting directly.

    Each node set is normalised once.  The lift to `mid` is the direct lift read
    on `mid`, so the pair is lifted twice: from its Levi, then that lift from `mid`.
    """
    mid = node_set(rs, mid)
    levi = node_set(rs, pair.levi)
    if not set(levi) <= set(mid):
        raise ValueError(f"{levi} is not contained in {mid}")
    lam, mu, d = _lift(rs, levi, pair.lambda_fw, pair.mu_fw)
    # d times the lift, read on mid, is lifted again: the lifts agree when that lift's lam is
    # d lam and its mu over its own d2 is mu's numerators over d
    lam2, mu2, d2 = _lift(rs, mid, [d * lam.get(n, 0) for n in mid], [mu.get(n, 0) for n in mid])
    return all(lam2.get(n, 0) == d * lam.get(n, 0) and mu2.get(n, 0) == d2 * mu.get(n, 0)
               for n in rs.nodes())


def induce_sum(rs: RootSystem, pairs) -> tuple[tuple, tuple]:
    """Sum of the lifts of pairs on pairwise disjoint Levis."""
    levis, used = [], set()
    for p in pairs:  # each Levi read once, and all of them before a weight
        levi = node_set(rs, p.levi)
        if used.intersection(levi):
            raise OverlappingLevisError(f"node sets overlap at {sorted(used.intersection(levi))}")
        used.update(levi)
        levis.append((levi, p))
    lam, mu, den = {}, {}, 1  # mu's numerators over den
    for levi, p in levis:
        part, part_mu, d = _lift(rs, levi, p.lambda_fw, p.mu_fw)
        lam.update(part)  # the Levis are disjoint
        mu = {k: mu.get(k, 0) * d + part_mu.get(k, 0) * den for k in mu.keys() | part_mu.keys()}
        den *= d
    return _at(lam, rs.nodes()), _at(mu, rs.nodes(), den)
