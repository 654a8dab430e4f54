"""Weyl group actions on weights: reflections, parabolic orbits, averages.

Group elements are never materialised; everything works on orbits of
coordinate vectors.  A weight is read as ``rootdata._weight`` reads one, with
its ints and Fractions as they are: int weights stay plain int tuples, which
makes the orbit closures considerably faster than Fraction arithmetic, and a
weight given in integral Fractions is walked in Fractions.  Reflections and
orbits move a weight by a simple root through the one Cartan-row step,
``rootdata._add_root``: s_i w = w - w_i alpha_i, alpha_i being row i of the
Cartan matrix in fundamental-weight coordinates.

Two module constants, read on each call, bound the work: an orbit has at most
MAX_ORBIT points, and the average refuses a subgroup of more than
MAX_GROUP_ORDER elements before enumerating it (BudgetExceededError).  The
longest element's image is unbounded, as its greedy walk enumerates nothing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetExceededError
from .rootdata import RootSystem, _add_root, _node, _weight, node_set, parabolic_order

MAX_ORBIT = 10**6
MAX_GROUP_ORDER = 10**6


def simple_reflection(rs: RootSystem, i: int, w) -> tuple:
    """Reflect a fundamental-weight coordinate vector in the i-th simple root:
    s_i w = w - w_i alpha_i (``rootdata._add_root``)."""
    return _reflect(rs, _node(rs, i), _weight(rs, w))


def _reflect(rs: RootSystem, i: int, w) -> tuple:
    # simple_reflection at a node id and a weight already read
    c = w[i - 1]
    return tuple(_add_root(rs, list(w), i, -c)) if c else w


def orbit(rs: RootSystem, w, nodes) -> frozenset:
    """Orbit of a weight under the Weyl subgroup generated by the given nodes."""
    nodes = node_set(rs, nodes)
    start = _weight(rs, w)
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for x in frontier:
            for i in nodes:
                c = x[i - 1]
                if c:  # _reflect, with no second call per point
                    y = tuple(_add_root(rs, list(x), i, -c))
                    if y not in seen:
                        if len(seen) >= MAX_ORBIT:
                            raise BudgetExceededError(f"orbit exceeds max_orbit={MAX_ORBIT}")
                        seen.add(y)
                        grown.append(y)
        frontier = grown
    return frozenset(seen)


def parabolic_average(rs: RootSystem, w, nodes) -> tuple:
    """Average of a weight over the parabolic Weyl subgroup of the given nodes.

    The group average equals the plain orbit average: every orbit point is
    hit by the same number of group elements (orbit-stabiliser).
    """
    nodes = node_set(rs, nodes)
    order = parabolic_order(rs, nodes)
    if order > MAX_GROUP_ORDER:
        raise BudgetExceededError(
            f"parabolic group order {order} exceeds max_group_order={MAX_GROUP_ORDER}")
    orb = orbit(rs, w, nodes)
    return tuple(Fraction(sum(col), len(orb)) for col in zip(*orb))


def longest_element_image(rs: RootSystem, w, nodes) -> tuple:
    """Image of a weight under the longest element of the parabolic subgroup.

    Computed as the unique orbit point that is anti-dominant on the given
    nodes, reached by greedily reflecting away positive coordinates: each
    reflection leaves one positive root of J fewer pairing positively with
    the weight, so there are at most |Phi^+_J| of them.
    """
    nodes = node_set(rs, nodes)
    x = _weight(rs, w)
    while True:
        for i in nodes:
            if x[i - 1] > 0:
                x = _reflect(rs, i, x)
                break
        else:
            return x
