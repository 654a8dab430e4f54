import random
from fractions import Fraction as Q
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul, sub

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_subsets, random_dominant, supported_types, systems
import kostka
from kostka import oracle, rootdata
from kostka import (FreudenthalTable, RootSystem, all_rays, brute_force_rays,
                    brute_force_vertices, compare_membership_multiplicity, cone_contains,
                    fundamental_weight, fw_to_root_coords, longest_element_image,
                    parabolic_order, polytope_vertices, positive_roots, rho, root_coords_to_fw,
                    root_system, simple_reflection, weight_multiplicity, weyl_dim,
                    weyl_order)
from kostka.errors import (CapExceededError, InvariantError, NotDominantError,
                           NotInRootLatticeError, RankBoundExceededError)


def test_brute_force_examples():
    c2 = root_system("C", 2)
    assert len(brute_force_vertices(c2, (1, 1))) == 4
    assert brute_force_vertices(c2, (1, 0)) == frozenset({(1, 0), (0, Q(1, 2)), (0, 0)})
    a1 = root_system("A", 1)
    assert brute_force_vertices(a1, (1,)) == frozenset({(1,), (0,)})


def test_brute_force_rank_bound(monkeypatch):
    with pytest.raises(RankBoundExceededError, match="^rank 6 exceeds the bound 5$"):
        brute_force_vertices(root_system("A", 6), (1,) * 6)
    # a raised bound lets it through
    monkeypatch.setattr(oracle, "DEFAULT_VERTEX_RANK_BOUND", 6)
    assert brute_force_vertices(root_system("A", 6), (0,) * 6)


def test_brute_force_needs_dominant():
    with pytest.raises(NotDominantError):
        brute_force_vertices(root_system("A", 2), (1, -1))


def test_one_refusal_of_a_non_dominant_weight():
    # the library refuses a non-dominant weight as the CLI reads one
    a2 = root_system("A", 2)
    for refuse in (polytope_vertices, brute_force_vertices, weyl_dim):
        with pytest.raises(NotDominantError, match="^weight 1/2,-1 is not dominant$"):
            refuse(a2, (Q(1, 2), -1))
    with pytest.raises(NotDominantError, match="^weight 1,-1 is not dominant$"):
        FreudenthalTable(a2, (1, -1))
    with pytest.raises(NotDominantError, match="^weight 1,-1 is not dominant$"):
        weight_multiplicity(a2, (1, -1), (0, 0))


def test_brute_force_matches_closed_form():
    rng = random.Random(41)
    for rs in systems(3):
        weights = [rho(rs), random_dominant(rng, rs.rank)]
        for lam in weights:
            closed = {v.point for v in polytope_vertices(rs, lam)}
            assert closed == set(brute_force_vertices(rs, lam))


def _closed_form(rs, lam):
    return {v.point for v in polytope_vertices(rs, lam)}


def test_brute_force_matches_closed_form_to_rank_8(monkeypatch):
    # at rho, at w_1 + w_r (2 w_1 at rank 1) and at a rational weight with zeros
    monkeypatch.setattr(oracle, "DEFAULT_VERTEX_RANK_BOUND", 8)
    for rs in systems(8):
        r = rs.rank
        ends = tuple((i == 1) + (i == r) for i in range(1, r + 1))
        rational = tuple(Q((i + 1) % 3, 1 + i % 4) for i in range(r))
        for lam in (rho(rs), ends, rational):
            assert brute_force_vertices(rs, lam) == _closed_form(rs, lam), (rs, lam)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(supported_types(7)), st.data())
def test_brute_force_matches_closed_form_at_random_rational_weights(case, data):
    rs = root_system(*case)
    lam = tuple(data.draw(st.lists(st.fractions(0, 3, max_denominator=4),
                                   min_size=rs.rank, max_size=rs.rank)))
    # patched here, not by the function-scoped monkeypatch fixture, which hypothesis refuses
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "DEFAULT_VERTEX_RANK_BOUND", 7)
        assert brute_force_vertices(rs, lam) == _closed_form(rs, lam)


def test_brute_force_at_zero_and_fundamental_weights(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_VERTEX_RANK_BOUND", 6)
    for rs in systems(6):
        zero = (0,) * rs.rank
        assert brute_force_vertices(rs, zero) == {zero}
        for i in rs.nodes():
            fw = fundamental_weight(rs, i)
            assert brute_force_vertices(rs, fw) == _closed_form(rs, fw), (rs, i)


def test_unbounded_slice_raises():
    # a real exception, not an assert, so the check survives python -O.  On the indefinite
    # Cartan matrix ((2, -3), (-3, 2)) the slice at rho is unbounded: C^T c <= rho holds
    # along c = (1, 1), so the double description finds rays with t = 0, which are not vertices
    indefinite = RootSystem("A", 2, [(1, 2, -3, -3)])
    with pytest.raises(InvariantError, match="unbounded"):
        brute_force_vertices(indefinite, (1, 1))


def _primitive(v):
    m = lcm(*(x.denominator for x in v))
    w = [int(x * m) for x in v]
    g = gcd(*w)
    return tuple(x // g for x in w)


def test_brute_force_rays_match_all_rays():
    # the paper's list of extremal rays is complete, by a method with no Levi solve
    for rs in systems(12):
        assert brute_force_rays(rs) == {_primitive(r.lambda_fw + r.mu_fw) for r in all_rays(rs)}, rs


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
    # a dominant weight off the weight lattice is refused as one, not as an internal fault
    with pytest.raises(NotInRootLatticeError, match="^weight 1/2,0 is not integral$"):
        weyl_dim(root_system("A", 2), (Q(1, 2), 0))


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
    # each weight is read once: an iterator of the right length is its tuple
    a3 = root_system("A", 3)
    assert weight_multiplicity(a3, iter((1, 0, 1)), iter((0, 0, 0))) == 3
    assert FreudenthalTable(a3, iter((1, 0, 1))).multiplicity(iter((0, 0, 0))) == 3
    assert compare_membership_multiplicity(a3, iter((1, 0, 1)), iter((0, 0, 0))) == (True, True, 3)
    assert weyl_dim(a3, iter((1, 0, 1))) == 15


def test_multiplicity_rejects_non_integral():
    a1 = root_system("A", 1)
    with pytest.raises(NotInRootLatticeError, match="^weight 1/2 is not integral$"):
        weight_multiplicity(a1, (Q(1, 2),), (0,))
    with pytest.raises(NotInRootLatticeError, match="^weight 1/2 is not integral$"):
        weight_multiplicity(a1, (2,), (Q(1, 2),))
    # printed as the CLI reads a weight
    with pytest.raises(NotInRootLatticeError, match="^weight 1/2,1 is not integral$"):
        weight_multiplicity(root_system("A", 2), (Q(1, 2), 1), (0, 0))


def test_multiplicity_cap(monkeypatch):
    # the cap is read on each call: a table built under a larger one is still refused,
    # also off the root-lattice coset, where the answer would be a plain zero
    c3 = root_system.__wrapped__("C", 3)  # fresh, so its first table is built here
    monkeypatch.setattr(oracle, "DEFAULT_DIM_CAP", 100)
    with pytest.raises(CapExceededError, match="^dim 19683 exceeds the cap 100$"):
        weight_multiplicity(c3, (2, 2, 2), (0, 0, 0))
    assert not c3._memo.get(FreudenthalTable)  # a failed build keeps nothing
    monkeypatch.undo()
    assert weight_multiplicity(c3, (2, 2, 2), (0, 0, 0)) > 0
    assert weight_multiplicity(c3, (2, 2, 2), (1, 0, 0)) == 0  # off the coset
    monkeypatch.setattr(oracle, "DEFAULT_DIM_CAP", 100)
    for mu in ((0, 0, 0), (1, 0, 0)):
        with pytest.raises(CapExceededError):
            weight_multiplicity(c3, (2, 2, 2), mu)
        with pytest.raises(CapExceededError):
            compare_membership_multiplicity(c3, (2, 2, 2), mu)
    monkeypatch.undo()
    # E6 at rho is far over the default cap, off the coset (w1) as on it (0)
    e6 = root_system("E", 6)
    for mu in ((1, 0, 0, 0, 0, 0), (0,) * 6):
        with pytest.raises(CapExceededError):
            weight_multiplicity(e6, (1,) * 6, mu)


def test_root_cap_refuses_before_a_root_is_enumerated(monkeypatch, solve_calls):
    # |Phi+| in closed form: A140 has 9870 positive roots, under the cap, and A141 10011
    assert [rootdata._positive_root_count("A", r) for r in (140, 141)] == [9870, 10011]
    enumerated = []
    monkeypatch.setattr(oracle, "_root_walk", enumerated.append)
    a141 = root_system.__wrapped__("A", 141)  # a fresh system, past the cache
    lam, mu = (1,) + (0,) * 139 + (1,), (0,) * 141
    refusal = r"^RootSystem\(A141\) has 10011 positive roots, over the cap 10000$"
    for call in (lambda: weyl_dim(a141, lam), lambda: FreudenthalTable(a141, lam),
                 lambda: weight_multiplicity(a141, lam, mu),
                 lambda: compare_membership_multiplicity(a141, lam, mu)):
        with pytest.raises(CapExceededError, match=refusal):
            call()
    assert not enumerated and not a141._memo and not solve_calls
    monkeypatch.undo()
    # read on each call, also for a table already kept
    a3 = root_system.__wrapped__("A", 3)
    assert weight_multiplicity(a3, (1, 0, 1), (0, 0, 0)) == 3
    monkeypatch.setattr(oracle, "DEFAULT_ROOT_CAP", 5)
    for call in (lambda: weight_multiplicity(a3, (1, 0, 1), (0, 0, 0)),
                 lambda: compare_membership_multiplicity(a3, (1, 0, 1), (0, 0, 0))):
        with pytest.raises(CapExceededError, match="has 6 positive roots, over the cap 5$"):
            call()


def test_a_weight_is_read_before_the_root_cap():
    # refused in this order: length, integrality, then the root cap (A141 is over it)
    a141 = root_system("A", 141)
    half, zero = (Q(1, 2),) + (0,) * 140, (0,) * 141
    short = (ValueError, r"^a weight of RootSystem\(A141\) has 141 coordinates, got 140$")
    not_integral = (NotInRootLatticeError, "^weight 1/2" + ",0" * 140 + " is not integral$")
    over_cap = (CapExceededError, "has 10011 positive roots, over the cap 10000$")
    for lam, mu, (error, refusal) in [
            (half[:-1], zero, short), (zero, half[:-1], short), (half, zero[:-1], short),
            (half, zero, not_integral), (zero, half, not_integral), (zero, zero, over_cap)]:
        with pytest.raises(error, match=refusal):
            compare_membership_multiplicity(a141, lam, mu)
    for lam, (error, refusal) in [(half[:-1], short), (half, not_integral), (zero, over_cap)]:
        for call in (lambda: weight_multiplicity(a141, lam, zero),
                     lambda: FreudenthalTable(a141, lam)):
            with pytest.raises(error, match=refusal):
                call()
    # a table's multiplicity reads mu by length, then integrality
    with pytest.raises(ValueError, match=r"^a weight of RootSystem\(A2\) has 2 coordinates, "
                                         r"got 1$"):
        FreudenthalTable(root_system("A", 2), (1, 1)).multiplicity((Q(1, 2),))
    # weyl_dim keeps dominance before integrality
    with pytest.raises(NotDominantError, match="^weight 1/2,-1 is not dominant$"):
        weyl_dim(root_system("A", 2), (Q(1, 2), -1))


def test_root_cap_accepts_every_system_to_rank_eight():
    # the benchmark's verify requests run at rank <= 5 and on E6; E8 has the most roots
    counts = [rootdata._positive_root_count(letter, r) for letter, r in supported_types(8)]
    assert max(counts) == 120 <= oracle.DEFAULT_ROOT_CAP


def test_tables_are_kept_on_their_root_system(monkeypatch):
    a3 = root_system("A", 3)
    weight_multiplicity(a3, (1, 0, 1), (0, 0, 0))
    table = a3._memo[FreudenthalTable][1, 0, 1]
    assert compare_membership_multiplicity(a3, (1, 0, 1), (0, 1, 0)).multiplicity == 0
    assert oracle._table(a3, (Q(1), 0, 1)) is table
    root_system.cache_clear()
    assert not root_system("A", 3)._memo.get(FreudenthalTable)
    # bound + 1 highest weights on one root system keep the newest bound of them
    a1, bound = root_system.__wrapped__("A", 1), 8
    monkeypatch.setattr(oracle, "_TABLES_PER_SYSTEM", bound)
    for k in range(bound + 1):
        assert weight_multiplicity(a1, (k,), (k % 2,)) == 1
    assert list(a1._memo[FreudenthalTable]) == [(k,) for k in range(1, bound + 1)]


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


def _small_highest_weights(rs):
    # each w_i, then w1 + w_r, 2 w_r and rho where they are under the dimension cap
    r = rs.rank
    lams = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    lams += [tuple((j == 0) + (j == r - 1) for j in range(r)), (0,) * (r - 1) + (2,), (1,) * r]
    return [lam for lam in dict.fromkeys(lams) if weyl_dim(rs, lam) <= oracle.DEFAULT_DIM_CAP]


def _gram(rs):
    # the invariant form in fundamental-weight coordinates, (w, w') = w^T G w' / N, built
    # here apart from the package: D C^-T from sympy, D the symmetrizer, over the lcm N of
    # its denominators
    g = sympy.diag(*rootdata.symmetrizer(rs)) * sympy.Matrix(rs.cartan).T.inv()
    n = lcm(*(x.q for x in g))
    return tuple(tuple(int(x * n) for x in g.row(i)) for i in range(rs.rank)), n


def test_positive_multiplicity_is_membership_exhaustively():
    # every dominant integral mu in a box holding every dominant weight of V_lam:
    # mu >= 0 and N (mu, mu) <= N (lam, lam), with G >= 0, give G_ii mu_i^2 <= N (lam, lam).
    # The multiplicities found also total to the Weyl dimension over the W-orbits
    for rs in systems(4) + [root_system("E", 6)]:
        gram = _gram(rs)[0]
        for lam in _small_highest_weights(rs):
            top = sum(x * g * y for x, row in zip(lam, gram) for g, y in zip(row, lam))
            box = [range(isqrt(top // gram[i][i]) + 1) for i in range(rs.rank)]
            total = 0
            for mu in product(*box):
                m = weight_multiplicity(rs, lam, mu)
                member = cone_contains(rs, lam, mu) and oracle._root_coefficients(rs, lam, mu)[1]
                assert member == (m > 0), (rs, lam, mu, m)
                if m:
                    zeros = tuple(i for i in rs.nodes() if not mu[i - 1])
                    total += m * weyl_order(rs.letter, rs.rank) // parabolic_order(rs, zeros)
            assert total == weyl_dim(rs, lam), (rs, lam)


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
def fresh_a2():
    # an A2 past root_system's cache, so tables it builds under a patch are its own
    return root_system.__wrapped__("A", 2)


def test_form_matches_sympy():
    # the positive integer d symmetrizes C, (alpha_i, alpha_j) = C_ij d_j, and the root
    # table's norms are (beta, beta) = beta^T C D beta in root coordinates
    for rs in systems(10):
        d, roots, _, norms, _, _ = oracle._root_table(rs)
        c, dm = sympy.Matrix(rs.cartan), sympy.diag(*d)
        assert min(d) > 0 and gcd(*d) == 1 and c * dm == (c * dm).T
        assert list(norms) == [(sympy.Matrix(a).T * c * dm * sympy.Matrix(a))[0]
                               for a, _ in roots], rs


def test_broken_form_raises(monkeypatch, fresh_a2):
    # a real exception, not an assert, so the check survives python -O.
    # d = (2, 1) does not symmetrize A2's Cartan matrix: the form it gives is not
    # W-invariant, and the recursion of the adjoint representation gives 4/3, not 2,
    # at its zero weight
    monkeypatch.setattr(oracle, "symmetrizer", lambda rs: (2, 1))
    assert oracle._root_table(fresh_a2)[0] == (2, 1)
    broken = r"^Freudenthal recursion gave multiplicity 4/3 at \(0, 0\)$"
    with pytest.raises(InvariantError, match=broken):
        weight_multiplicity(fresh_a2, (1, 1), (0, 0))


def test_root_orbits_partition_the_positive_roots():
    # for every node subset J: one positive representative per W_J-orbit of the
    # positive roots up to sign, the orbit grown here under +-s_j has the stated
    # size, and the orbits cover the positive roots exactly once
    for rs in systems(6) + [root_system("E", 7), root_system("E", 8)]:
        gram, scale = _gram(rs)
        by_fw = {fw: a for a, fw in oracle._root_table(rs)[1]}
        for nodes in all_subsets(rs.rank):
            zeros = tuple(j - 1 for j in nodes)
            covered = set()
            for alpha, alpha_fw, size, aa, _ in oracle._root_orbits(rs, zeros):
                assert by_fw.get(alpha_fw) == alpha, (rs, nodes, alpha)
                assert scale * aa == sum(x * g * y for x, row in zip(alpha_fw, gram)
                                         for g, y in zip(row, alpha_fw))
                orbit, frontier = {alpha_fw}, [alpha_fw]
                while frontier:
                    w = frontier.pop()
                    for j in nodes:
                        v = simple_reflection(rs, j, w)
                        if v not in by_fw:
                            v = tuple(-x for x in v)
                        if v not in orbit:
                            orbit.add(v)
                            frontier.append(v)
                assert len(orbit) == size and not orbit & covered, (rs, nodes, alpha)
                covered |= orbit
            assert covered == set(by_fw), (rs, nodes)


def test_root_table_reflects_the_positive_roots():
    # the index of +-s_j beta per root and node, against weyl's reflection of beta
    for rs in systems(5) + [root_system("E", 8)]:
        _, roots, _, _, reflected, _ = oracle._root_table(rs)
        for (alpha, alpha_fw), images in zip(roots, reflected):
            for j, b in enumerate(images, 1):
                image = simple_reflection(rs, j, alpha_fw)
                assert roots[b][1] in (image, tuple(-x for x in image)), (rs, alpha, j)


def test_the_root_table_is_read_from_one_walk(monkeypatch):
    # the walk that finds the positive roots keeps their fw coordinates and reflections: on a
    # fresh system the root table, the sorted roots, the orbits and a multiplicity run it
    # once, and no root is taken to fw coordinates again
    assert not {"positive_roots", "root_coords_to_fw"} & set(vars(oracle))
    runs, walk = [], rootdata._root_walk.__wrapped__

    def counted(rs):
        runs.append(rs)
        return walk(rs)

    def unused(*args):
        raise AssertionError("root_coords_to_fw called")

    kept = rootdata._per_system(counted)
    monkeypatch.setattr(rootdata, "_root_walk", kept)
    monkeypatch.setattr(oracle, "_root_walk", kept)
    monkeypatch.setattr(rootdata, "root_coords_to_fw", unused)
    monkeypatch.setattr(kostka, "root_coords_to_fw", unused)
    for letter, r in (("A", 12), ("B", 5), ("F", 4), ("G", 2), ("E", 8)):
        rs = root_system.__wrapped__(letter, r)
        roots = oracle._root_table(rs)[1]
        assert positive_roots(rs) == tuple(sorted(a for a, _ in roots))
        assert oracle._root_orbits(rs, ())[0][:3] == (*min(roots), 1)
        theta = max(roots, key=lambda a: sum(a[0]))[1]  # the adjoint representation
        assert weight_multiplicity(rs, theta, (0,) * r) == r
        assert runs == [rs], (letter, r)
        runs.clear()


def _reference_multiplicities(rs, lam):
    # plain Freudenthal: every positive root, every weight xi = lam - c (c >= 0 in
    # root coordinates), norms from the quadratic form N (w, w') = w^T G w' of _gram
    gram = _gram(rs)[0]
    roots = [(a, root_coords_to_fw(rs, a)) for a in positive_roots(rs)]

    def form(w, v):
        return sum(x * g * y for x, row in zip(w, gram) for g, y in zip(row, v))

    def shifted(w):
        return tuple(x + 1 for x in w)

    top = form(shifted(lam), shifted(lam))
    memo = {}

    def mult(c):
        if min(c) < 0:
            return 0
        if not any(c):
            return 1
        if c not in memo:
            xi = tuple(a - b for a, b in zip(lam, root_coords_to_fw(rs, c)))
            den = top - form(shifted(xi), shifted(xi))
            if den <= 0:
                memo[c] = 0
            else:
                total = 0
                for alpha, alpha_fw in roots:
                    k = 1
                    while min(up := tuple(x - k * y for x, y in zip(c, alpha))) >= 0:
                        higher = tuple(x + k * y for x, y in zip(xi, alpha_fw))
                        total += mult(up) * form(higher, alpha_fw)
                        k += 1
                m, rem = divmod(2 * total, den)
                assert rem == 0 and m >= 0, (rs, lam, xi)
                memo[c] = m
        return memo[c]
    return mult


def test_multiplicity_matches_plain_freudenthal():
    # at every dominant mu below w1, w_r, w1 + w_r and 2 w1, for every type up to
    # rank 4 and E6; B3, C3, F4 and G2 at mu = 0, where J mixes two root lengths
    at_zero = set()
    for rs in systems(4) + [root_system("E", 6)]:
        r = rs.rank
        for ends in {(1,), (r,), (1, r), (1, 1)}:
            lam = tuple(ends.count(i) for i in range(1, r + 1))
            table, reference = FreudenthalTable(rs, lam), _reference_multiplicities(rs, lam)
            for mu in _dominant_weights_below(rs, lam):
                diff = tuple(a - b for a, b in zip(lam, mu))
                c = tuple(int(x) for x in fw_to_root_coords(rs, diff))
                assert table.multiplicity(mu) == reference(c), (rs, lam, mu)
                if not any(mu) and reference(c):
                    at_zero.add((rs.letter, r))
    assert {("B", 3), ("C", 3), ("F", 4), ("G", 2)} <= at_zero


def _kostant_multiplicities(rs, lam):
    # Kostant's formula, m(mu) = sum_w eps(w) p(w(lam + rho) - (mu + rho)) (Humphreys, §24.2),
    # sharing only positive_roots and cartan with the package: W walks the regular lam + rho
    # by s_i x = x - x_i (row i of C), each step flipping eps; fw coordinates go to root
    # coordinates by C^-T = adj / det from sympy; p counts the ways to sum positive roots to
    # a vector
    cartan, r, roots = rs.cartan, rs.rank, positive_roots(rs)
    ct = sympy.Matrix(cartan).T
    det, adj = int(ct.det()), [[int(x) for x in row] for row in ct.adjugate().tolist()]
    start = tuple(x + 1 for x in lam)
    signs, frontier = {start: 1}, [start]
    for x in frontier:  # grows while it is read
        for i in range(r):
            y = tuple(a - x[i] * c for a, c in zip(x, cartan[i]))
            if y not in signs:
                signs[y] = -signs[x]
                frontier.append(y)
    # det times the root coordinates of each w(lam + rho), with eps(w)
    images = [(sign, [sum(map(mul, row, x)) for row in adj]) for x, sign in signs.items()]

    @lru_cache(maxsize=None)
    def partitions(nu, k=0):
        # the ways to write nu as a sum of roots[k:], each any number of times
        if k == len(roots):
            return int(not any(nu))
        rest = tuple(a - b for a, b in zip(nu, roots[k]))
        return partitions(nu, k + 1) + (partitions(rest, k) if min(rest) >= 0 else 0)

    def mult(mu):
        shift = [sum(a * (b + 1) for a, b in zip(row, mu)) for row in adj]  # det (mu + rho)
        total = 0
        for sign, x in images:
            nu = [a - b for a, b in zip(x, shift)]
            if all(c >= 0 and c % det == 0 for c in nu):
                total += sign * partitions(tuple(c // det for c in nu))
        return total
    return mult


def test_multiplicity_matches_kostants_formula():
    # at every dominant mu below w_i and w1 + w_r (2 w1 at rank 1), for every type up to
    # rank 4, and at mu's antidominant W-conjugate, asked first of a fresh system so that
    # h follows the reflections from mu's coefficients: a second oracle, with no Freudenthal
    # recursion and no invariant form
    checked = 0
    for rs in systems(4):
        r, cartan = rs.rank, rs.cartan
        ends = [(i,) for i in range(1, r + 1)] + [(1, r)]
        for lam in dict.fromkeys(tuple(e.count(i) for i in range(1, r + 1)) for e in ends):
            reference = _kostant_multiplicities(rs, lam)
            for mu in _dominant_weights_below(rs, lam):
                low = mu  # its antidominant W-conjugate: reflect away each positive coordinate
                while max(low) > 0:
                    i = next(i for i, x in enumerate(low) if x > 0)
                    low = tuple(a - low[i] * c for a, c in zip(low, cartan[i]))
                fresh = root_system.__wrapped__(rs.letter, r)
                m = reference(mu)
                assert weight_multiplicity(fresh, lam, low) == m == reference(low), (rs, lam, low)
                assert weight_multiplicity(rs, lam, mu) == m, (rs, lam, mu)
                checked += 1
    assert checked == 108  # (lam, mu) pairs


def test_coefficients_follow_the_reflections_from_a_cold_memo():
    # h = (lam - w, rho) = sum_j c_j d_j, c being lam - w's simple-root coefficients, moves
    # with w to its dominant representative nu and arrives as lam - nu's; and a fresh table
    # gives the multiplicity at s_i mu that another fresh table gives at mu, for w1, w_r and
    # w1 + w_r (2 w1 at rank 1) of every type up to rank 4 and E6, mu being lam, 0 or a
    # fundamental weight
    cases = 0
    for rs in systems(4) + [root_system("E", 6)]:
        r, d = rs.rank, rootdata.symmetrizer(rs)
        height = lambda a, b: sum(map(mul, fw_to_root_coords(rs, tuple(map(sub, a, b))), d))
        for ends in dict.fromkeys(((1,), (r,), (1, r))):
            lam = tuple(ends.count(i) for i in range(1, r + 1))
            fws = [fundamental_weight(rs, i) for i in rs.nodes()]
            for mu in dict.fromkeys([lam, (0,) * r, *fws]):
                m = FreudenthalTable(rs, lam).multiplicity(mu)
                for i in rs.nodes():
                    w = simple_reflection(rs, i, mu)
                    nu, h = FreudenthalTable(rs, lam)._dominant_rep(w, height(lam, w))
                    assert min(nu) >= 0 and h == height(lam, nu), (rs, lam, mu, i)
                    assert FreudenthalTable(rs, lam).multiplicity(w) == m, (rs, lam, mu, i)
                    cases += 1
    assert cases == 654  # distinct (lam, mu, i)
    # along a string h moves by -k (alpha, rho): with 4 w1 dropped from the memo of A1 at
    # 6 w1, the string of 0 (h = 3, gap = (6 w1, 6 w1) = 18) meets it at k = 2, with h = 3 - 2
    a1 = root_system("A", 1)
    full, table = FreudenthalTable(a1, (6,)), FreudenthalTable(a1, (6,))
    assert full.multiplicity((0,)) == 1 and set(full._memo) == {(6,), (4,), (2,), (0,)}
    table._memo[2,] = 1
    assert table._dominant_mult((0,), 3, 18) == 1 and table._memo[4,] == 1


def test_the_oracle_reads_no_dense_inverse(solve_calls):
    # the invariant form is the root table's symmetrizer: on a fresh system no entry of the
    # multiplicity oracle builds the inverse of the Cartan matrix
    for letter, r, lam, mu in (("B", 4, (1, 0, 0, 1), (0, 0, 0, 1)), ("G", 2, (1, 1), (0, 0)),
                               ("F", 4, (1, 0, 0, 0), (0, 0, 0, 1))):
        for call in (lambda rs: compare_membership_multiplicity(rs, lam, mu),
                     lambda rs: weight_multiplicity(rs, lam, mu), lambda rs: weyl_dim(rs, lam)):
            rs = root_system.__wrapped__(letter, r)
            call(rs)
            assert not solve_calls, (rs, call)
