"""Weyl group actions on weights: reflections, parabolic orbits, averages.

Group elements are never materialised; everything works on orbits of
coordinate vectors.  Integral weights are kept as plain int tuples, which
makes the orbit closures considerably faster than Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, InvariantError
from .rootdata import RootSystem, _check_length, node_set, parabolic_order


@dataclass(frozen=True)
class OrbitBudget:
    max_orbit: int = 10**6
    max_group_order: int = 10**6


DEFAULT_BUDGET = OrbitBudget()


def _canonical(rs: RootSystem, w) -> tuple:
    # a weight from outside the module, as ints where it is integral
    vals = [Fraction(x) for x in w]
    _check_length(rs, vals)
    if all(v.denominator == 1 for v in vals):
        return tuple(int(v) for v in vals)
    return tuple(vals)


def simple_reflection(rs: RootSystem, i: int, w) -> tuple:
    """Reflect a fundamental-weight coordinate vector in the i-th simple root."""
    c = w[i - 1]
    if c == 0:
        return tuple(w)
    row = rs.cartan[i - 1]
    return tuple(w[j] - c * row[j] for j in range(rs.rank))


def orbit(rs: RootSystem, w, nodes, budget: OrbitBudget = DEFAULT_BUDGET) -> frozenset:
    """Orbit of a weight under the Weyl subgroup generated by the given nodes."""
    nodes = node_set(rs, nodes)
    r = rs.rank
    idx_rows = [(i - 1, rs.cartan[i - 1]) for i in nodes]
    start = _canonical(rs, w)
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for x in frontier:
            for pos, row in idx_rows:
                c = x[pos]
                if c:
                    y = tuple(x[j] - c * row[j] for j in range(r))
                    if y not in seen:
                        if len(seen) >= budget.max_orbit:
                            raise BudgetExceededError(
                                f"orbit exceeds max_orbit={budget.max_orbit}")
                        seen.add(y)
                        grown.append(y)
        frontier = grown
    return frozenset(seen)


def _check_group_budget(rs, nodes, budget):
    order = parabolic_order(rs, nodes)
    if order > budget.max_group_order:
        raise BudgetExceededError(
            f"parabolic group order {order} exceeds max_group_order={budget.max_group_order}")
    return order


def parabolic_average(rs: RootSystem, w, nodes, budget: OrbitBudget = DEFAULT_BUDGET) -> tuple:
    """Average of a weight over the parabolic Weyl subgroup of the given nodes.

    The group average equals the plain orbit average: every orbit point is
    hit by the same number of group elements (orbit-stabiliser).
    """
    nodes = node_set(rs, nodes)
    _check_group_budget(rs, nodes, budget)
    orb = orbit(rs, w, nodes, budget)
    return tuple(Fraction(sum(col)) / len(orb) for col in zip(*orb))


def parabolic_average_direct(rs: RootSystem, w, nodes,
                             budget: OrbitBudget = DEFAULT_BUDGET) -> tuple:
    """The same average by brute-force enumeration of the whole subgroup.

    Walks the orbit of the pair (regular marker, w); the marker has trivial
    stabiliser, so the pair orbit is in bijection with the group.  Kept as
    an independent cross-check for :func:`parabolic_average`.
    """
    nodes = node_set(rs, nodes)
    order = _check_group_budget(rs, nodes, budget)
    marker = tuple(1 if (j + 1) in nodes else 0 for j in range(rs.rank))
    start = (marker, _canonical(rs, w))
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for x, y in frontier:
            for i in nodes:
                pair = (simple_reflection(rs, i, x), simple_reflection(rs, i, y))
                if pair not in seen:
                    seen.add(pair)
                    grown.append(pair)
        frontier = grown
    if len(seen) != order:
        raise InvariantError(f"pair orbit has {len(seen)} points, group order is {order}")
    return tuple(Fraction(sum(col)) / order for col in zip(*(y for _, y in seen)))


def longest_element_image(rs: RootSystem, w, nodes,
                          budget: OrbitBudget = DEFAULT_BUDGET) -> tuple:
    """Image of a weight under the longest element of the parabolic subgroup.

    Computed as the unique orbit point that is anti-dominant on the given
    nodes, reached by greedily reflecting away positive coordinates.
    """
    nodes = node_set(rs, nodes)
    _check_group_budget(rs, nodes, budget)
    x = _canonical(rs, w)
    while True:
        for i in nodes:
            if x[i - 1] > 0:
                x = simple_reflection(rs, i, x)
                break
        else:
            return x
