import random
from fractions import Fraction as Q
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import all_subsets, random_dominant, supported_types, systems
from kostka import weyl
from kostka import (fw_to_root_coords, is_connected, longest_element_image, orbit,
                    parabolic_average, parabolic_order, rho, root_system, simple_reflection,
                    vertex, weyl_order)
from kostka.errors import BudgetExceededError, InvariantError


def _direct_average(rs, w, nodes):
    """The average of w over the parabolic subgroup of the ascending `nodes`, by
    brute-force enumeration of the whole subgroup: the reference `parabolic_average` is
    tested against.

    Walks the orbit of the pair (regular marker, w), each reflection s_i x = x - x_i
    alpha_i read from row i of the dense Cartan matrix; the marker has trivial
    stabiliser, so the pair orbit is in bijection with the group.  Raises InvariantError,
    not an assert, if its size is not the group order as `weyl` reads it.
    """
    order = weyl.parabolic_order(rs, nodes)

    def reflect(i, x):
        return tuple(a - x[i - 1] * c for a, c in zip(x, rs.cartan[i - 1]))

    start = (tuple(int(j in nodes) for j in rs.nodes()), tuple(w))
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for x, y in frontier:
            for i in nodes:
                pair = (reflect(i, x), reflect(i, y))
                if pair not in seen:
                    seen.add(pair)
                    grown.append(pair)
        frontier = grown
    if len(seen) != order:
        raise InvariantError(f"pair orbit has {len(seen)} points, group order is {order}")
    return tuple(Q(sum(col)) / order for col in zip(*(y for _, y in seen)))


def test_reflection_examples():
    a1 = root_system("A", 1)
    assert simple_reflection(a1, 1, (1,)) == (-1,)
    c2 = root_system("C", 2)
    assert simple_reflection(c2, 1, (1, 1)) == (-1, 2)
    assert simple_reflection(c2, 2, (0, 0)) == (0, 0)


def test_reflection_involution():
    rng = random.Random(2)
    for rs in systems(5):
        for _ in range(5):
            w = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            for i in range(1, rs.rank + 1):
                assert simple_reflection(rs, i, simple_reflection(rs, i, w)) == w
                # s_i w = w - w_i alpha_i, alpha_i row i of the dense Cartan matrix
                assert simple_reflection(rs, i, w) == tuple(
                    x - w[i - 1] * a for x, a in zip(w, rs.cartan[i - 1]))
                if w[i - 1] == 0:
                    assert simple_reflection(rs, i, w) == w


def test_orbit_examples():
    a1 = root_system("A", 1)
    assert orbit(a1, (1,), (1,)) == frozenset({(1,), (-1,)})
    a2 = root_system("A", 2)
    assert len(orbit(a2, (1, 1), (1, 2))) == 6
    c2 = root_system("C", 2)
    assert len(orbit(c2, (1, 0), (1, 2))) == 4


def test_orbit_budget(monkeypatch):
    a2 = root_system("A", 2)
    monkeypatch.setattr(weyl, "MAX_ORBIT", 3)
    with pytest.raises(BudgetExceededError, match="^orbit exceeds max_orbit=3$"):
        orbit(a2, (1, 1), (1, 2))


def test_orbit_of_rho_has_group_size():
    for letter, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2), ("D", 4)):
        rs = root_system(letter, rank)
        assert len(orbit(rs, rho(rs), rs.nodes())) == weyl_order(letter, rank)


def test_average_examples():
    a1 = root_system("A", 1)
    assert parabolic_average(a1, (1,), (1,)) == (0,)
    c2 = root_system("C", 2)
    assert parabolic_average(c2, (1, 0), (1,)) == (0, Q(1, 2))
    assert parabolic_average(c2, (1, 0), (1, 2)) == (0, 0)


def test_average_orbit_budget(monkeypatch):
    # at the default bound, E7's 2903040-point orbit of rho is refused before a point is built
    e7 = root_system("E", 7)
    walked = []
    monkeypatch.setattr(weyl, "_add_root", lambda *args: walked.append(args))
    with pytest.raises(BudgetExceededError, match="^orbit exceeds max_orbit=1000000$"):
        parabolic_average(e7, rho(e7), e7.nodes())
    assert walked == []
    monkeypatch.undo()
    e6 = root_system("E", 6)
    monkeypatch.setattr(weyl, "MAX_ORBIT", 1000)
    with pytest.raises(BudgetExceededError):
        parabolic_average(e6, rho(e6), e6.nodes())


def test_small_orbits_of_large_groups_are_averaged():
    # the whole Weyl group of A9, D8 and E8 has more than 10^6 elements, but the orbits of
    # 0, w1 and w8 have 1, 16 and 240 points; over every node, the average is the vertex
    for letter, rank, i in (("A", 9, 0), ("D", 8, 1), ("E", 8, 8)):
        rs = root_system(letter, rank)
        w = tuple(int(j == i) for j in rs.nodes())
        assert parabolic_order(rs, rs.nodes()) > weyl.MAX_ORBIT
        assert parabolic_average(rs, w, rs.nodes()) == vertex(rs, w, rs.nodes()).point


def test_orbit_over_the_bound_builds_no_point(monkeypatch):
    # E8's orbit of rho is the whole group, 696729600 points: sized and refused up front
    e8, walked = root_system("E", 8), []
    monkeypatch.setattr(weyl, "_add_root", lambda *args: walked.append(args))
    with pytest.raises(BudgetExceededError, match="^orbit exceeds max_orbit=1000000$"):
        orbit(e8, rho(e8), e8.nodes())
    assert walked == []


def _closure(rs, w, nodes):
    """The orbit of w under the reflections on `nodes`, each s_i x = x - x_i alpha_i read
    from row i of the dense Cartan matrix and applied at every point, whatever the sign of
    x_i: a reference that knows nothing of antidominant points or stabilisers."""
    seen = {tuple(w)}
    frontier = [tuple(w)]
    while frontier:
        grown = []
        for x in frontier:
            for i in nodes:
                y = tuple(a - x[i - 1] * c for a, c in zip(x, rs.cartan[i - 1]))
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        frontier = grown
    return seen


@st.composite
def _orbit_cases(draw):
    """A system of rank at most 6, an integer weight in [-2, 2]^r and a node set whose
    group has at most 10^4 elements, so that a draw walks at most 10^4 points."""
    letter, r = draw(st.sampled_from(supported_types(6)))
    rs = root_system(letter, r)
    w = tuple(draw(st.integers(-2, 2)) for _ in range(r))
    nodes = tuple(sorted(draw(st.sets(st.integers(1, r)))))
    assume(parabolic_order(rs, nodes) <= 10**4)
    return rs, w, nodes


@settings(max_examples=100, deadline=None)
@given(_orbit_cases())
@example((root_system("A", 1), (0,), ()))
@example((root_system("G", 2), (-1, 2), (1, 2)))
@example((root_system("B", 3), (1, -2, 0), (1, 3)))
# the whole groups of B6 and E6, at weights with a stabiliser and 1280 and 1080 points
@example((root_system("B", 6), (1, -1, 2, -2, 1, 1), (1, 2, 3, 4, 5, 6)))
@example((root_system("E", 6), (1, -1, 2, -2, 1, 1), (1, 2, 3, 4, 5, 6)))
def test_orbit_is_the_closure_and_has_its_stabiliser_size(case):
    rs, w, nodes = case
    got = orbit(rs, w, nodes)
    assert got == _closure(rs, w, nodes)
    # the one point of the orbit that is anti-dominant on J, and its zeros J0 on J
    (low,) = [x for x in got if all(x[i - 1] <= 0 for i in nodes)]
    zeros = [i for i in nodes if low[i - 1] == 0]
    assert len(got) == parabolic_order(rs, nodes) // parabolic_order(rs, zeros)


def test_average_is_parabolic_invariant():
    rng = random.Random(4)
    for rs in systems(4):
        for _ in range(3):
            w = random_dominant(rng, rs.rank)
            for nodes in all_subsets(rs.rank):
                avg = parabolic_average(rs, w, nodes)
                for i in nodes:
                    assert simple_reflection(rs, i, avg) == avg


def test_dominant_drop_is_supported_on_nodes():
    rng = random.Random(6)
    for rs in systems(4):
        for _ in range(3):
            w = random_dominant(rng, rs.rank)
            for nodes in all_subsets(rs.rank):
                avg = parabolic_average(rs, w, nodes)
                drop = fw_to_root_coords(rs, tuple(a - b for a, b in zip(w, avg)))
                for j in range(1, rs.rank + 1):
                    if j in nodes:
                        assert drop[j - 1] >= 0
                    else:
                        assert drop[j - 1] == 0
                # strict positivity on connected node sets seeing the weight
                if is_connected(rs, nodes) and any(w[i - 1] for i in nodes):
                    assert all(drop[i - 1] > 0 for i in nodes)


def test_average_agrees_with_direct_group_enumeration():
    rng = random.Random(8)
    for rs in systems(3):
        for _ in range(2):
            w = random_dominant(rng, rs.rank)
            for nodes in all_subsets(rs.rank):
                assert parabolic_average(rs, w, nodes) == _direct_average(rs, w, nodes)
    # one bigger spot check
    c4 = root_system("C", 4)
    nodes = (1, 2, 4)
    assert parabolic_average(c4, rho(c4), nodes) == _direct_average(c4, rho(c4), nodes)
    assert parabolic_order(c4, nodes) == 12  # A2 x A1 factors


def test_longest_element_examples():
    a1 = root_system("A", 1)
    assert longest_element_image(a1, (1,), (1,)) == (-1,)
    assert longest_element_image(a1, (-1,), (1,)) == (1,)
    c2 = root_system("C", 2)
    assert longest_element_image(c2, (1, 1), (1, 2)) == (-1, -1)
    a2 = root_system("A", 2)
    assert longest_element_image(a2, (1, 1), (1,)) == simple_reflection(a2, 1, (1, 1))


def test_longest_element_is_antidominant_orbit_point():
    rng = random.Random(10)
    for rs in systems(3):
        w = random_dominant(rng, rs.rank)
        for nodes in all_subsets(rs.rank):
            img = longest_element_image(rs, w, nodes)
            assert all(img[i - 1] <= 0 for i in nodes)
            assert img in orbit(rs, w, nodes)


def test_longest_element_sends_rho_to_minus_rho():
    # w_0 rho = -rho in every type; the greedy walk enumerates no orbit, so no orbit bound
    # applies, also where the orbit of rho has far more than weyl.MAX_ORBIT points
    for letter, r in supported_types(12):
        rs = root_system(letter, r)
        assert longest_element_image(rs, rho(rs), rs.nodes()) == tuple(-x for x in rho(rs)), rs
    assert weyl_order("E", 8) > weyl.MAX_ORBIT


def _longest_reference(rs, w, nodes):
    """w0 w for w0 the longest element of the parabolic subgroup of `nodes`: the J-regular
    point sum of the nodes' fundamental weights is walked down to its anti-dominant point,
    and w is reflected at each step, s_i x = x - x_i alpha_i read from row i of the dense
    Cartan matrix.  The element that makes a J-regular point anti-dominant is w0."""
    def reflect(i, x):
        return tuple(a - x[i - 1] * c for a, c in zip(x, rs.cartan[i - 1]))

    x = tuple(int(j in nodes) for j in rs.nodes())
    while (up := [i for i in nodes if x[i - 1] > 0]):
        x, w = reflect(up[0], x), reflect(up[0], w)
    return w


@st.composite
def _longest_cases(draw):
    """A system of rank at most 6, two integer weights in [-3, 3]^r and a node set."""
    letter, r = draw(st.sampled_from(supported_types(6)))
    weight = st.tuples(*[st.integers(-3, 3)] * r)
    return (root_system(letter, r), draw(weight), draw(weight),
            tuple(sorted(draw(st.sets(st.integers(1, r))))))


@settings(max_examples=200, deadline=None)
@given(_longest_cases())
@example((root_system("A", 1), (-1,), (0,), (1,)))
def test_longest_element_is_linear_involution_w0(case):
    # also on weights that are not dominant on the nodes: w0 is linear, not the map to the
    # anti-dominant orbit point
    rs, w, v, nodes = case
    img = longest_element_image(rs, w, nodes)
    assert img == _longest_reference(rs, w, nodes)
    assert longest_element_image(rs, img, nodes) == w
    assert longest_element_image(rs, tuple(map(add, w, v)), nodes) == tuple(
        map(add, img, longest_element_image(rs, v, nodes)))


def test_rho_plus_longest_rho_is_twice_average():
    for rs in systems(5):
        r = rho(rs)
        for nodes in all_subsets(rs.rank):
            avg = parabolic_average(rs, r, nodes)
            lhs = tuple(a + b for a, b in zip(r, longest_element_image(rs, r, nodes)))
            assert lhs == tuple(2 * x for x in avg)


def test_broken_orbit_invariant_raises(monkeypatch):
    # the reference refuses a pair orbit that is not the group: a real exception, not an
    # assert, so the check survives python -O
    c3 = root_system("C", 3)
    monkeypatch.setattr(weyl, "parabolic_order", lambda rs, nodes: 47)
    with pytest.raises(InvariantError, match="^pair orbit has 6 points, group order is 47$"):
        _direct_average(c3, rho(c3), (1, 2))
