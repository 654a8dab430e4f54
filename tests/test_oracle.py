import random
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_dominant, supported_types, systems
from kostka import oracle
from kostka import (FreudenthalTable, brute_force_vertices,
                    compare_membership_multiplicity, cone_contains,
                    fw_to_root_coords, longest_element_image, parabolic_order,
                    polytope_vertices, positive_roots, rho, root_coords_to_fw,
                    root_system, weight_multiplicity, weyl_dim, weyl_order)
from kostka.errors import (CapExceededError, InvariantError, NotDominantError,
                           NotInRootLatticeError, RankBoundExceededError)


def test_brute_force_examples():
    c2 = root_system("C", 2)
    assert len(brute_force_vertices(c2, (1, 1))) == 4
    assert brute_force_vertices(c2, (1, 0)) == frozenset({(1, 0), (0, Q(1, 2)), (0, 0)})
    a1 = root_system("A", 1)
    assert brute_force_vertices(a1, (1,)) == frozenset({(1,), (0,)})


def test_brute_force_rank_bound():
    with pytest.raises(RankBoundExceededError):
        brute_force_vertices(root_system("A", 6), (1,) * 6)
    # a raised bound lets it through
    assert brute_force_vertices(root_system("A", 6), (0,) * 6, max_rank=6)


def test_brute_force_needs_dominant():
    with pytest.raises(NotDominantError):
        brute_force_vertices(root_system("A", 2), (1, -1))


def test_brute_force_matches_closed_form():
    rng = random.Random(41)
    for rs in systems(3):
        weights = [rho(rs), random_dominant(rng, rs.rank)]
        for lam in weights:
            closed = {v.point for v in polytope_vertices(rs, lam)}
            assert closed == set(brute_force_vertices(rs, lam))


def test_weyl_dim_examples():
    assert weyl_dim(root_system("A", 1), (2,)) == 3
    assert weyl_dim(root_system("A", 2), (1, 1)) == 8
    c2 = root_system("C", 2)
    assert weyl_dim(c2, (1, 0)) == 4
    assert weyl_dim(c2, (0, 1)) == 5
    g2 = root_system("G", 2)
    assert weyl_dim(g2, (1, 0)) == 7
    assert weyl_dim(g2, (0, 1)) == 14
    assert weyl_dim(root_system("D", 4), (1, 0, 0, 0)) == 8


def test_multiplicity_examples():
    a1 = root_system("A", 1)
    assert weight_multiplicity(a1, (2,), (0,)) == 1
    assert weight_multiplicity(a1, (2,), (2,)) == 1
    assert weight_multiplicity(a1, (2,), (-2,)) == 1
    assert weight_multiplicity(a1, (1,), (0,)) == 0  # off the root-lattice coset
    a2 = root_system("A", 2)
    assert weight_multiplicity(a2, (1, 1), (0, 0)) == 2
    assert weight_multiplicity(a2, (1, 1), (1, 1)) == 1
    assert weight_multiplicity(a2, (1, 1), (2, 2)) == 0


def test_multiplicity_rejects_non_integral():
    a1 = root_system("A", 1)
    with pytest.raises(NotInRootLatticeError):
        weight_multiplicity(a1, (Q(1, 2),), (0,))
    with pytest.raises(NotInRootLatticeError):
        weight_multiplicity(a1, (2,), (Q(1, 2),))


def test_multiplicity_cap():
    with pytest.raises(CapExceededError):
        weight_multiplicity(root_system("C", 3), (2, 2, 2), (0, 0, 0), cap=100)


def _dominant_weights_below(rs, lam):
    # box in root coordinates between lam and its lowest-weight partner
    low = longest_element_image(rs, lam, rs.nodes())
    top = fw_to_root_coords(rs, tuple(a - b for a, b in zip(lam, low)))
    assert all(c.denominator == 1 for c in top)
    ranges = [range(int(c) + 1) for c in top]
    out = []
    for c in product(*ranges):
        nu = tuple(a - b for a, b in zip(lam, root_coords_to_fw(rs, c)))
        if all(x >= 0 for x in nu):
            out.append(nu)
    return out


def test_multiplicities_total_to_weyl_dim():
    cases = [("A", 1, (3,)), ("A", 2, (1, 1)), ("C", 2, (1, 1)), ("G", 2, (1, 0)),
             ("B", 3, (0, 1, 0)), ("A", 3, (1, 0, 1))]
    # w1, w_r and w1 + w_r (2*w1 at rank 1) for every type of rank <= 4, and E6
    for letter, r in supported_types(4) + [("E", 6)]:
        for ends in ((1,), (r,), (1, r)):
            cases.append((letter, r, tuple(ends.count(i) for i in range(1, r + 1))))
    for letter, r, lam in cases:
        rs = root_system(letter, r)
        table = FreudenthalTable(rs, lam)
        total = 0
        for nu in _dominant_weights_below(rs, lam):
            m = table.multiplicity(nu)
            if m:
                stab = tuple(i for i in range(1, r + 1) if nu[i - 1] == 0)
                total += m * weyl_order(letter, r) // parabolic_order(rs, stab)
        assert total == weyl_dim(rs, lam)


def test_comparison_examples():
    a1 = root_system("A", 1)
    cmp = compare_membership_multiplicity(a1, (2,), (0,))
    assert (cmp.member, cmp.in_root_lattice, cmp.multiplicity) == (True, True, 1)
    assert cmp.agrees
    c2 = root_system("C", 2)
    cmp = compare_membership_multiplicity(c2, (1, 1), (0, 0))
    assert (cmp.member, cmp.in_root_lattice, cmp.multiplicity) == (True, False, 0)
    assert cmp.agrees
    a2 = root_system("A", 2)
    cmp = compare_membership_multiplicity(a2, (1, 0), (0, 1))
    assert (cmp.member, cmp.multiplicity) == (False, 0)
    assert cmp.agrees


def test_comparison_exhaustive_rank_2():
    for letter in ("A", "B", "C", "G"):
        rs = root_system(letter, 2)
        for lam in product(range(3), repeat=2):
            table = FreudenthalTable(rs, lam)
            for mu in product(range(3), repeat=2):
                diff = fw_to_root_coords(rs, tuple(a - b for a, b in zip(lam, mu)))
                member = cone_contains(rs, lam, mu)
                mult = table.multiplicity(mu)
                lattice = all(c.denominator == 1 for c in diff)
                assert (member and lattice) == (mult > 0), (letter, lam, mu)


def test_adjoint_representation():
    # the highest root theta is the highest weight of the adjoint representation:
    # dimension |roots| + rank, and the zero weight space is the Cartan subalgebra
    for rs in systems(8):
        roots = positive_roots(rs)
        theta = root_coords_to_fw(rs, max(roots, key=sum))
        assert weyl_dim(rs, theta) == 2 * len(roots) + rs.rank, rs
        assert weight_multiplicity(rs, theta, (0,) * rs.rank) == rs.rank, rs
        assert weight_multiplicity(rs, theta, theta) == 1, rs


@st.composite
def _oracle_pairs(draw):
    letter, r = draw(st.sampled_from(supported_types(4)))
    rs = root_system(letter, r)
    lam = tuple(draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)))
    assume(weyl_dim(rs, lam) <= oracle.DEFAULT_DIM_CAP)
    mu = tuple(draw(st.lists(st.integers(0, 4), min_size=r, max_size=r)))
    return rs, lam, mu


@settings(max_examples=60, deadline=None)
@given(_oracle_pairs())
def test_membership_matches_positive_multiplicity(case):
    rs, lam, mu = case
    cmp = compare_membership_multiplicity(rs, lam, mu)
    assert cmp.agrees, (rs, lam, mu, cmp)
    diff = fw_to_root_coords(rs, tuple(a - b for a, b in zip(lam, mu)))
    assert cmp.in_root_lattice == all(c.denominator == 1 for c in diff)


@pytest.fixture
def fresh_form():
    form = oracle._form
    form.cache_clear()
    yield
    form.cache_clear()


def test_broken_form_raises(monkeypatch, fresh_form):
    # a real exception, not an assert, so the check survives python -O.
    # Scale 1 claims the form is integral on the weight lattice, where A2's has
    # denominator 3: the recursion at the zero weight of the adjoint
    # representation then gives 2/3 instead of 2.
    a2 = root_system("A", 2)
    gram, scale, d, roots = oracle._form(a2)
    assert scale == 3
    monkeypatch.setattr(oracle, "_form", lambda rs: (gram, 1, d, roots))
    with pytest.raises(InvariantError):
        weight_multiplicity(a2, (1, 1), (0, 0))
