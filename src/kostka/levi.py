"""Lifting weight pairs from Levi subsystems into the ambient system.

Levi-local weights are tuples indexed by the Levi's own positions 1..|I|
after sorting its ambient node ids; every function that crosses the
boundary takes the node set explicitly, so ambient and local coordinates
can never be silently confused.
"""

from __future__ import annotations

from fractions import Fraction
from dataclasses import dataclass

from . import linalg
from .cone import Vertex, _levi_vertex, vertex
from .errors import NotDominantError, NotInLeviConeError, OverlappingLevisError
from .rootdata import RootSystem, is_dominant, node_set, root_coords_to_fw


@dataclass(frozen=True)
class LeviWeightPair:
    """A weight pair living on a Levi subsystem, in local coordinates."""

    levi: tuple[int, ...]
    lambda_fw: tuple
    mu_fw: tuple


def restrict(rs: RootSystem, levi, w) -> tuple:
    """Local coordinates of an ambient weight on the Levi's nodes."""
    levi = node_set(rs, levi)
    return tuple(w[n - 1] for n in levi)


def extend_by_zero(rs: RootSystem, levi, lam_local) -> tuple:
    """Ambient weight agreeing with the local one on the Levi, zero elsewhere."""
    levi = node_set(rs, levi)
    if len(lam_local) != len(levi):
        raise ValueError("local weight length does not match the node set")
    if not is_dominant(lam_local):
        raise NotDominantError(f"local weight {tuple(lam_local)} is not dominant")
    out = [Fraction(0)] * rs.rank
    for n, v in zip(levi, lam_local):
        out[n - 1] = Fraction(v)
    return tuple(out)


def levi_root_coords(rs: RootSystem, levi, w_local) -> tuple:
    """Coefficients of the Levi's simple roots expressing a local weight.

    One solve of the whole Levi block, the vertex solve of `cone.vertex` on
    the weight extended by zero; the components do not interact because the
    Cartan submatrix is block diagonal across them.
    """
    levi = node_set(rs, levi)
    if len(w_local) != len(levi):
        raise ValueError("local weight length does not match the node set")
    w = [Fraction(0)] * rs.rank
    for n, x in zip(levi, linalg.vector(w_local)):
        w[n - 1] = x
    c_alpha = _levi_vertex(rs, tuple(w), levi)[0].c_alpha
    return tuple(c_alpha[n - 1] for n in levi)


def levi_cone_contains(rs: RootSystem, levi, lam_local, mu_local) -> bool:
    """Membership in the Levi's own cone: the conjunction over its simple factors."""
    levi = node_set(rs, levi)
    if not (is_dominant(lam_local) and is_dominant(mu_local)):
        return False
    diff = tuple(a - b for a, b in zip(lam_local, mu_local))
    return all(c >= 0 for c in levi_root_coords(rs, levi, diff))


def induce_between(rs: RootSystem, inner, outer, lam_local, mu_local) -> tuple[tuple, tuple]:
    """Lift a pair from an inner Levi to an outer one containing it.

    The lifted pair keeps the same simple-root coefficients: the first
    weight is the extension by zero, the second is that extension minus the
    original root combination re-read in the outer system.
    """
    inner = node_set(rs, inner)
    outer = node_set(rs, outer)
    if not set(inner) <= set(outer):
        raise ValueError(f"{inner} is not contained in {outer}")
    # one solve: the pair is in the inner cone when both weights and c are dominant
    c = levi_root_coords(rs, inner, tuple(a - b for a, b in zip(lam_local, mu_local)))
    if not (is_dominant(lam_local) and is_dominant(mu_local) and is_dominant(c)):
        raise NotInLeviConeError(
            f"({tuple(lam_local)}, {tuple(mu_local)}) is not in the cone of {inner}")
    lam = extend_by_zero(rs, inner, lam_local)
    full = [Fraction(0)] * rs.rank
    for n, x in zip(inner, c):
        full[n - 1] = x
    drop = root_coords_to_fw(rs, full)
    return tuple(lam[n - 1] for n in outer), tuple(lam[n - 1] - drop[n - 1] for n in outer)


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
    """Whether lifting through an intermediate Levi agrees with lifting directly."""
    mid = node_set(rs, mid)
    direct = induce(rs, pair)
    lam_mid, mu_mid = induce_between(rs, pair.levi, mid, pair.lambda_fw, pair.mu_fw)
    two_step = induce_between(rs, mid, rs.nodes(), lam_mid, mu_mid)
    return direct == two_step


def induce_sum(rs: RootSystem, pairs) -> tuple[tuple, tuple]:
    """Sum of the lifts of pairs on pairwise disjoint Levis."""
    pairs = tuple(pairs)
    used: set[int] = set()
    for p in pairs:
        nodes = set(node_set(rs, p.levi))
        if used & nodes:
            raise OverlappingLevisError(f"node sets overlap at {sorted(used & nodes)}")
        used |= nodes
    lam_total = [Fraction(0)] * rs.rank
    mu_total = [Fraction(0)] * rs.rank
    for p in pairs:
        lam, mu = induce(rs, p)
        lam_total = [a + b for a, b in zip(lam_total, lam)]
        mu_total = [a + b for a, b in zip(mu_total, mu)]
    return tuple(lam_total), tuple(mu_total)
