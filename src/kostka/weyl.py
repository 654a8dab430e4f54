"""Weyl group actions on weights: reflections, parabolic orbits, averages.

Group elements are never materialised; everything works on orbits of
coordinate vectors.  A weight is read as ``rootdata._weight`` reads one: int
weights stay plain int tuples, much faster to walk than Fractions.  Every move
by a simple root is the one Cartan-row step ``rootdata._add_root``:
s_i w = w - w_i alpha_i, alpha_i row i of the Cartan matrix in
fundamental-weight coordinates.  The J-dominant orbit point is reached by the one
chamber walk, ``rootdata._dominant``.

One module constant, read on each call, bounds the work: an orbit, and so an
average, has at most MAX_ORBIT points.  The bound is exact and checked before
the walk: the orbit's J-dominant point `high` has stabiliser W_J0, J0 the nodes
of J where `high` is zero (Humphreys, Reflection Groups and Coxeter Groups,
1.12), so the orbit has |W_J| / |W_J0| points.  The walk goes down from `high`,
reflecting only where a coordinate is positive.  A dominant weight is its own
`high`, so a refused orbit of one moves no point.  The longest element's image
is unbounded: its two greedy walks enumerate nothing.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub

from .errors import BudgetExceededError
from .rootdata import RootSystem, _add_root, _dominant, _node, _weight, node_set, parabolic_order

MAX_ORBIT = 10**6


def simple_reflection(rs: RootSystem, i: int, w) -> tuple:
    """Reflect a fundamental-weight coordinate vector in the i-th simple root:
    s_i w = w - w_i alpha_i (``rootdata._add_root``)."""
    i, w = _node(rs, i), _weight(rs, w)
    c = w[i - 1]
    return tuple(_add_root(rs, list(w), i, -c)) if c else w


def orbit(rs: RootSystem, w, nodes) -> frozenset:
    """Orbit of a weight under the Weyl subgroup generated by the given nodes."""
    nodes = node_set(rs, nodes)
    high = tuple(_dominant(rs, list(_weight(rs, w)), nodes))
    size = parabolic_order(rs, nodes) // parabolic_order(rs, [i for i in nodes if not high[i - 1]])
    if size > MAX_ORBIT:
        raise BudgetExceededError(f"orbit exceeds max_orbit={MAX_ORBIT}")
    seen = {high}
    points = [high]
    for x in points:  # grows while it is read; every point lies below high
        for i in nodes:
            c = x[i - 1]
            if c > 0:  # s_i x, downwards only
                y = tuple(_add_root(rs, list(x), i, -c))
                if y not in seen:
                    seen.add(y)
                    points.append(y)
    return frozenset(seen)


def parabolic_average(rs: RootSystem, w, nodes) -> tuple:
    """Average of a weight over the parabolic Weyl subgroup of the given nodes.

    The group average equals the plain orbit average: every orbit point is
    hit by the same number of group elements (orbit-stabiliser).
    """
    orb = orbit(rs, w, nodes)
    return tuple(Fraction(sum(col), len(orb)) for col in zip(*orb))


def longest_element_image(rs: RootSystem, w, nodes) -> tuple:
    """Image of a weight under the longest element w0 of the parabolic subgroup.  w0 x is
    minus the dominant point of the orbit of -x for x dominant on the nodes, and w0 is
    linear: w is read as (w + s) - s, s the least multiple of the nodes' fundamental
    weights that makes w + s dominant on them."""
    nodes = node_set(rs, nodes)
    w = _weight(rs, w)
    t = -min([0, *(w[i - 1] for i in nodes)])
    s = [t if i in nodes else 0 for i in rs.nodes()]
    low = _dominant(rs, [-a - b for a, b in zip(w, s)], nodes)  # -w0 (w + s)
    return tuple(map(sub, _dominant(rs, [-b for b in s], nodes), low))  # w0 (w + s) - w0 s
