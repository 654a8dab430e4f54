import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction as Q
from math import lcm
from time import perf_counter

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import all_subsets, random_dominant, supported_types, systems
from kostka import (RootSystem, all_rays, brute_force_vertices, cli, components, cone, cone_contains,
                    cone_inequalities, connected_subsets_containing, fundamental_weight,
                    fw_to_root_coords, is_extremal_ray, levi_root_coords, linalg,
                    parabolic_average, polytope_vertices, ray_count_formula, rays_for_node,
                    rho, root_coords_to_fw, root_system, rootdata, sub_cartan, vertex)
from kostka.errors import (CapExceededError, InvariantError, NotDominantError,
                           NotInConeError)
from kostka.oracle import DEFAULT_VERTEX_RANK_BOUND

C4_GOLDEN_NODE3 = {
    ((0, 0, 1, 0), (0, 0, 1, 0)),
    ((0, 0, 2, 0), (0, 1, 0, 1)),
    ((0, 0, 2, 0), (0, 2, 0, 0)),
    ((0, 0, 3, 0), (1, 0, 0, 2)),
    ((0, 0, 2, 0), (2, 0, 0, 0)),
    ((0, 0, 4, 0), (0, 0, 0, 3)),
    ((0, 0, 2, 0), (0, 0, 0, 0)),
}


def test_membership_examples():
    a1 = root_system("A", 1)
    assert cone_contains(a1, (2,), (0,))
    assert cone_contains(a1, (1,), (0,))
    assert not cone_contains(a1, (0,), (1,))
    assert not cone_contains(a1, (-1,), (0,))


def test_cone_inequalities_shape():
    c3 = root_system("C", 3)
    forms = cone_inequalities(c3)
    assert len(forms) == 9
    assert [f.label for f in forms[:3]] == ["dom-lambda(1)", "dom-lambda(2)", "dom-lambda(3)"]
    assert all(len(f.coeffs) == 6 for f in forms)


def _fraction_forms(rs):
    # the cone's 3r forms on (lam | mu) as the paper writes them, from sympy's C^-T, as
    # lists of Fractions: the unit vectors of lam and of mu, then lam - mu's simple-root
    # coefficient j, row j of C^-T on lam less it on mu
    r = rs.rank
    inv = sympy.Matrix(rs.cartan).T.inv()
    rows = [[Q(int(inv[j, i].p), int(inv[j, i].q)) for i in range(r)] for j in range(r)]
    units = [[Q(int(i == j)) for j in range(2 * r)] for i in range(2 * r)]
    return units + [row + [-x for x in row] for row in rows]


def test_cone_inequalities_pinned():
    # the H-description on (lam | c), c the simple-root coefficients of lam - mu, in ints:
    # the unit vectors of lam, then dom-mu(i) = e_i less column i of the Cartan matrix on
    # the c half, then the unit vectors of c
    for rs in systems(10):
        r = rs.rank
        forms = cone_inequalities(rs)
        assert [f.label for f in forms] == ([f"dom-lambda({i})" for i in rs.nodes()]
                                            + [f"dom-mu({i})" for i in rs.nodes()]
                                            + [f"rootcoef({j})" for j in rs.nodes()]), rs
        assert all(type(x) is int for f in forms for x in f.coeffs)
        units = [tuple(int(i == j) for j in range(2 * r)) for i in range(2 * r)]
        assert [f.coeffs for f in forms[:r] + forms[2 * r:]] == units
        assert [f.coeffs for f in forms[r:2 * r]] == [
            units[i][:r] + tuple(-row[i] for row in rs.cartan) for i in range(r)], rs
        # each form, composed with (lam, mu) -> (lam, C^-T (lam - mu)), is its form on
        # (lam | mu): a change of coordinates, C^-T from sympy
        inv = sympy.Matrix(rs.cartan).T.inv()
        to_c = sympy.eye(2 * r)
        to_c[r:, :r], to_c[r:, r:] = inv, -inv
        for f, want in zip(forms, _fraction_forms(rs), strict=True):
            composed = sympy.Matrix([f.coeffs]) * to_c
            assert [Q(int(x.p), int(x.q)) for x in composed] == want, (rs, f.label)


def test_vertex_examples():
    c2 = root_system("C", 2)
    assert vertex(c2, (1, 0), (1,)).point == (0, Q(1, 2))
    c4 = root_system("C", 4)
    assert vertex(c4, (0, 0, 3, 0), (2, 3)).point == (1, 0, 0, 2)
    assert vertex(c4, (0, 0, 3, 0), ()).point == (0, 0, 3, 0)
    with pytest.raises(NotDominantError):
        vertex(c2, (1, -1), (1,))


def test_vertex_minimal_levi():
    c2 = root_system("C", 2)
    # node 2 never sees w1, so it is dropped from the defining set
    assert vertex(c2, (1, 0), (2,)).levi == ()
    assert vertex(c2, (1, 0), (1, 2)).levi == (1, 2)


def test_polytope_vertices_examples():
    c2 = root_system("C", 2)
    assert len(polytope_vertices(c2, (1, 1))) == 4
    pts = {v.point for v in polytope_vertices(c2, (1, 0))}
    assert pts == {(1, 0), (0, Q(1, 2)), (0, 0)}
    a1 = root_system("A", 1)
    assert {v.point for v in polytope_vertices(a1, (1,))} == {(1,), (0,)}
    assert [v.point for v in polytope_vertices(a1, (0,))] == [(0,)]
    # a weight is read once: a generator, all-int or not, gives its tuple's vertices
    assert polytope_vertices(c2, (x for x in (1, 0))) == polytope_vertices(c2, (1, 0))
    assert polytope_vertices(c2, (x for x in (Q(1, 2), 1))) == polytope_vertices(c2, (Q(1, 2), 1))


@st.composite
def _slices(draw):
    """A system of rank at most 7 and a dominant weight: sparse, rational or regular."""
    letter, r = draw(st.sampled_from(supported_types(7)))
    kind = draw(st.sampled_from(("sparse", "rational", "regular")))
    if kind == "sparse":
        support = draw(st.sets(st.integers(0, r - 1), max_size=3))
        lam = tuple(draw(st.integers(1, 3)) if j in support else 0 for j in range(r))
    elif kind == "rational":
        lam = tuple(draw(st.builds(Q, st.integers(0, 4), st.integers(1, 3))) for _ in range(r))
    else:
        lam = tuple(draw(st.integers(1, 3)) for _ in range(r))
    return root_system(letter, r), lam


@settings(max_examples=60, deadline=None)
@given(_slices())
def test_polytope_vertices_match_exhaustive_rule(case):
    rs, lam = case
    got = polytope_vertices(rs, lam)
    # the exhaustive rule: the vertex solve on every node subset, deduplicated by point
    found = {}
    for nodes in all_subsets(rs.rank):
        v = vertex(rs, lam, nodes)
        found.setdefault(v.point, v)
    assert got == tuple(sorted(found.values(), key=lambda v: (len(v.levi), v.levi)))
    if rs.rank <= 5:
        assert {v.point for v in got} == brute_force_vertices(rs, lam)
    expected = sum(1 for nodes in all_subsets(rs.rank)
                   if all(any(lam[n - 1] for n in c) for c in components(rs, nodes)))
    assert len(got) == expected
    for v in got:
        assert v.c_alpha == fw_to_root_coords(rs, tuple(a - b for a, b in zip(lam, v.point)))
        assert tuple(j for j, c in enumerate(v.c_alpha, 1) if c) == v.levi


def _printed_vertices(fmt, rs, lam):
    """(levi, point cells, c_alpha cells) of each row of a json or tsv vertices request."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["vertices", "--type", rs.letter, "--rank", str(rs.rank), "--format", fmt,
                         "--lambda", ",".join(map(str, lam))]) == 0
    if fmt == "json":
        return [(tuple(row["levi"]), row["point_fw"], row["c_alpha"])
                for row in map(json.loads, out.getvalue().splitlines())]
    rows = [line.split("\t") for line in out.getvalue().splitlines()[1:]]
    return [(tuple(int(n) for n in levi.split(",") if n), point.split(","), c.split(","))
            for _, _, _, levi, point, c in rows]


@st.composite
def _rational_slices(draw):
    """A system of rank at most the brute-force bound, a rational dominant weight and a node."""
    letter, r = draw(st.sampled_from(supported_types(DEFAULT_VERTEX_RANK_BOUND)))
    lam = tuple(draw(st.fractions(0, 3, max_denominator=6)) for _ in range(r))
    return root_system(letter, r), lam, draw(st.integers(1, r))


@settings(max_examples=60, deadline=None)
@given(_rational_slices())
@example((root_system("B", 5), (Q(1, 2), 0, Q(2, 3), 0, Q(5, 6)), 3))
def test_integer_vertices_match_independent_references(case):
    # the vertices are held as integers over one denominator and read as Fractions;
    # both readings are checked against double description and the root coordinates
    rs, lam, i = case
    got = polytope_vertices(rs, lam)
    assert len({v.denominator for v in got}) == 1  # the CLI formats each table over one
    assert {v.point for v in got} == brute_force_vertices(rs, lam)
    for v in got:
        assert v.c_alpha == fw_to_root_coords(rs, tuple(a - b for a, b in zip(lam, v.point)))
        assert vertex(rs, lam, v.levi) == v
        assert all(type(x) is Q for x in v.point + v.c_alpha)
    printed = [(v.levi, list(map(str, v.point)), list(map(str, v.c_alpha))) for v in got]
    for fmt in ("json", "tsv"):
        assert _printed_vertices(fmt, rs, lam) == printed
    fw = tuple(Q(x) for x in fundamental_weight(rs, i))
    for ray in rays_for_node(rs, i):
        assert ray.c_alpha == fw_to_root_coords(rs, tuple(a - b for a, b in zip(fw, ray.mu_fw)))
        assert vertex(rs, fw, ray.levi).point == ray.mu_fw


def test_vertex_equality_is_by_value():
    # numerators over different denominators that give the same Fractions are one vertex
    a = cone.Vertex((1,), (0, 3, 1, 0), 2)
    b = cone.Vertex((1,), (0, 6, 2, 0), 4)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert (a.point, a.c_alpha) == ((0, Q(3, 2)), (Q(1, 2), 0))
    assert a != cone.Vertex((1, 2), (0, 3, 1, 0), 2)
    assert a != cone.Vertex((1,), (0, 3, 1, 0), 3)


@st.composite
def _levi_cases(draw):
    """A system of rank at most 8, a dominant weight, integral or rational and zero on
    some nodes, and any node set, connected or not."""
    letter, r = draw(st.sampled_from(supported_types(8)))
    coord = st.one_of(st.just(0), st.integers(1, 3), st.builds(Q, st.integers(1, 5), st.integers(2, 3)))
    lam = tuple(draw(coord) for _ in range(r))
    return root_system(letter, r), lam, tuple(sorted(draw(st.sets(st.integers(1, r)))))


@settings(max_examples=120, deadline=None)
@given(_levi_cases())
@example((root_system("A", 6), (0, 0, 0, 1, Q(1, 2), 2), (1, 2, 4, 5)))  # a component where lam is 0
@example((root_system("E", 7), (Q(2, 3), 0, 0, 0, 0, 0, 1), (1, 3, 6, 7)))
def test_vertex_matches_an_independent_levi_solve(case):
    # sympy solves C_L^T c = lam|_L; the vertex is lam minus the pairings of c
    rs, lam, nodes = case
    got = vertex(rs, lam, nodes)
    c = [Q(0)] * rs.rank
    if nodes:
        block = sympy.Matrix(sub_cartan(rs, nodes)).T
        rhs = sympy.Matrix([sympy.Rational(str(lam[n - 1])) for n in nodes])
        for n, x in zip(nodes, block.LUsolve(rhs)):
            c[n - 1] = Q(int(x.p), int(x.q))
    r = range(rs.rank)
    assert got.c_alpha == tuple(c)
    assert got.point == tuple(lam[k] - sum(c[n] * rs.cartan[n][k] for n in r) for k in r)
    # a component where lam is zero has zero coefficients and leaves the minimal levi
    assert got.levi == tuple(sorted(n for comp in components(rs, nodes)
                                    if any(lam[m - 1] for m in comp) for n in comp))
    assert all(type(x) is Q for x in got.point + got.c_alpha)


def test_polytope_vertices_cap(monkeypatch):
    a3 = root_system("A", 3)
    monkeypatch.setattr(cone, "VERTEX_CAP", 8)
    assert len(polytope_vertices(a3, (1, 1, 1))) == 8
    monkeypatch.setattr(cone, "VERTEX_CAP", 7)
    with pytest.raises(CapExceededError):
        polytope_vertices(a3, (1, 1, 1))
    # a non-dominant weight is refused as such, not as too large
    with pytest.raises(NotDominantError):
        polytope_vertices(a3, (1, 1, -1))


def test_vertex_points_lie_in_slice():
    rng = random.Random(21)
    for rs in systems(4):
        lam = random_dominant(rng, rs.rank)
        for v in polytope_vertices(rs, lam):
            assert cone_contains(rs, lam, v.point)


def test_vertex_linearity():
    rng = random.Random(23)
    for rs in systems(5):
        for _ in range(10):
            lam1 = random_dominant(rng, rs.rank)
            lam2 = random_dominant(rng, rs.rank)
            nodes = tuple(i for i in range(1, rs.rank + 1) if rng.random() < 0.5)
            total = vertex(rs, tuple(a + b for a, b in zip(lam1, lam2)), nodes).point
            parts = tuple(a + b for a, b in zip(vertex(rs, lam1, nodes).point,
                                                vertex(rs, lam2, nodes).point))
            assert total == parts


def test_vertex_fixed_when_node_missing():
    # the subgroup on I fixes w_i whenever i is outside I
    for rs in systems(4):
        for i in range(1, rs.rank + 1):
            fw = fundamental_weight(rs, i)
            for nodes in all_subsets(rs.rank):
                if i not in nodes:
                    assert vertex(rs, fw, nodes).point == tuple(fw)


def test_vertex_depends_only_on_component_through_node():
    for rs in systems(4):
        for i in range(1, rs.rank + 1):
            fw = fundamental_weight(rs, i)
            for nodes in all_subsets(rs.rank):
                if i in nodes:
                    comp = next(c for c in components(rs, nodes) if i in c)
                    assert vertex(rs, fw, nodes).point == vertex(rs, fw, comp).point


def test_vertex_matches_weyl_average():
    rng = random.Random(25)
    for rs in systems(4):
        weights = [fundamental_weight(rs, i) for i in range(1, rs.rank + 1)]
        weights += [rho(rs), tuple(2 * x for x in rho(rs)), random_dominant(rng, rs.rank)]
        for lam in weights:
            for nodes in all_subsets(rs.rank):
                assert vertex(rs, lam, nodes).point == parabolic_average(rs, lam, nodes)


def test_rays_for_node_a1():
    a1 = root_system("A", 1)
    rays = rays_for_node(a1, 1)
    assert len(rays) == 2
    assert (rays[0].lambda_fw, rays[0].mu_fw) == ((1,), (1,))
    assert rays[1].levi == (1,)
    assert tuple(2 * x for x in rays[1].mu_fw) == (0,)
    assert rays[1].k_primitive == 2 and rays[1].k_det == 2


def test_rays_for_node_a2():
    a2 = root_system("A", 2)
    assert [r.levi for r in rays_for_node(a2, 1)] == [(), (1,), (1, 2)]


def test_c4_node3_golden_table():
    c4 = root_system("C", 4)
    rays = rays_for_node(c4, 3)
    assert len(rays) == 7
    scaled = {(tuple(r.k_det * x for x in r.lambda_fw),
               tuple(r.k_det * x for x in r.mu_fw)) for r in rays}
    assert scaled == C4_GOLDEN_NODE3


def test_ray_records_are_consistent():
    for rs in systems(6):
        for ray in all_rays(rs):
            drop = root_coords_to_fw(rs, ray.c_alpha)
            assert tuple(a - b for a, b in zip(ray.lambda_fw, drop)) == ray.mu_fw
            for j in range(1, rs.rank + 1):
                if j in ray.levi:
                    assert ray.c_alpha[j - 1] > 0
                else:
                    assert ray.c_alpha[j - 1] == 0
            assert (ray.levi == ()) == (ray.mu_fw == ray.lambda_fw)
            assert ray.k_det % ray.k_primitive == 0
            k = ray.k_primitive
            assert all((k * x).denominator == 1 for x in ray.lambda_fw)
            assert all((k * x).denominator == 1 for x in ray.mu_fw)
            assert all((k * c).denominator == 1 for c in ray.c_alpha)


def test_all_rays_are_the_rays_of_each_node_in_turn():
    for rs in systems(8):
        assert all_rays(rs) == tuple(ray for i in rs.nodes() for ray in rays_for_node(rs, i))


def test_records_of_one_ray_compare_and_hash_equal():
    e6 = root_system("E", 6)
    first, second = rays_for_node(e6, 4), rays_for_node(e6, 4)
    for ray in first:
        ray.mu_fw, ray.c_alpha, ray.k_primitive  # read on one record only
    rebuilt = [cone.RayRecord(r.node, r.levi, tuple(list(r.numerators)), r.k_det) for r in first]
    assert first == second == tuple(rebuilt)
    assert [hash(r) for r in first] == [hash(r) for r in second] == [hash(r) for r in rebuilt]
    assert len(set(first + second)) == len(first)


@st.composite
def _ray_nodes(draw):
    """A system of rank at most 10 and one of its nodes."""
    letter, r = draw(st.sampled_from(supported_types(10)))
    return root_system(letter, r), draw(st.integers(1, r))


@settings(max_examples=40, deadline=None)
@given(_ray_nodes())
def test_rays_for_node_match_independent_derivation(case):
    rs, i = case
    rays = rays_for_node(rs, i)
    fw = tuple(Q(x) for x in fundamental_weight(rs, i))
    assert [r.levi for r in rays] == [()] + connected_subsets_containing(rs, i)
    assert rays[0] == cone.RayRecord(i, (), fundamental_weight(rs, i) + (0,) * rs.rank, 1)
    assert (rays[0].lambda_fw, rays[0].mu_fw, rays[0].k_primitive) == (fw, fw, 1)
    for ray in rays[1:]:
        levi = ray.levi
        # the old derivation: a solve for c_alpha, then a separate determinant
        solved = sympy.Matrix(sub_cartan(rs, levi)).T.LUsolve(
            sympy.Matrix([int(n == i) for n in levi]))
        c_alpha = [Q(0)] * rs.rank
        for n, c in zip(levi, solved):
            c_alpha[n - 1] = Q(int(c.p), int(c.q))
        det = int(sympy.Matrix(sub_cartan(rs, levi)).det())
        # mu = w_i - C^T c from the dense Cartan matrix, apart from the package's row step
        ctc = sympy.Matrix(rs.cartan).T * sympy.Matrix([sympy.Rational(c.numerator, c.denominator)
                                                        for c in c_alpha])
        mu = tuple(a - Q(int(x.p), int(x.q)) for a, x in zip(fw, ctc))
        # the record of these values, over the determinant
        scaled = [det * x for x in mu + tuple(c_alpha)]
        assert all(x.denominator == 1 for x in scaled)
        assert ray == cone.RayRecord(i, levi, tuple(x.numerator for x in scaled), det)
        assert ray.lambda_fw == fw
        assert ray.c_alpha == tuple(c_alpha)
        assert ray.k_det == det
        assert ray.k_primitive == lcm(*(c.denominator for c in c_alpha))
        assert ray.mu_fw == mu
        assert all(type(x) is Q for x in ray.mu_fw + ray.c_alpha)


@settings(max_examples=40, deadline=None)
@given(_ray_nodes())
def test_rays_are_the_slice_vertices_at_the_fundamental_weight(case):
    # the main theorem: the extremal rays at w_i are the vertices of the slice at w_i
    rs, i = case
    rays = rays_for_node(rs, i)
    verts = polytope_vertices(rs, fundamental_weight(rs, i))
    assert ([(r.levi, r.mu_fw, r.c_alpha) for r in rays]
            == [(v.levi, v.point, v.c_alpha) for v in verts])
    for r in rays:
        assert cone_contains(rs, r.lambda_fw, r.mu_fw)
        assert is_extremal_ray(rs, r.lambda_fw, r.mu_fw)


@pytest.mark.parametrize("entry", [-2, -3], ids=["singular", "negative-determinant"])
def test_levi_solve_checks_its_invariant(entry):
    # C3 with the edge (2, 3, entry, entry): the Levi block on {2, 3}, built from
    # those Cartan entries, is [[2, -2], [-2, 2]] (singular) or [[2, -3], [-3, 2]]
    # (determinant -5), and every entry point to the Levi solve refuses it
    bad = RootSystem("C", 3, [(1, 2, -1, -1), (2, 3, entry, entry)])
    assert bad.cartan == ((2, -1, 0), (-1, 2, entry), (0, entry, 2))
    with pytest.raises(InvariantError):
        vertex(bad, (1, 1, 1), (2, 3))
    with pytest.raises(InvariantError):
        vertex(bad, (0, 0, 0), (2, 3))
    with pytest.raises(InvariantError):
        rays_for_node(bad, 2)
    with pytest.raises(InvariantError):
        levi_root_coords(bad, (2, 3), (1, 0))
    with pytest.raises(InvariantError):
        polytope_vertices(bad, (1, 1, 1))


@st.composite
def _forest_solves(draw):
    """A system of rank at most 10, any nonempty node set, connected or not, and a
    weight with zero, integral and rational entries, zero on whole components at times."""
    letter, r = draw(st.sampled_from(supported_types(10)))
    coord = st.one_of(st.just(0), st.integers(1, 4), st.builds(Q, st.integers(-5, 5), st.integers(2, 6)))
    lam = [draw(coord) for _ in range(r)]
    nodes = tuple(sorted(draw(st.sets(st.integers(1, r), min_size=1))))
    rs = root_system(letter, r)
    for comp in components(rs, nodes):
        if draw(st.booleans()):
            for n in comp:
                lam[n - 1] = 0
    return rs, tuple(lam), nodes


@settings(max_examples=300, deadline=None)
@given(_forest_solves())
@example((root_system("E", 8), (1, 0, Q(1, 2), 0, 0, 0, 0, 2), tuple(range(1, 9))))
@example((root_system("D", 6), (0, 0, 0, 0, 1, 0), (1, 2, 5, 6)))  # a component where lam is 0
@example((root_system("F", 4), (Q(1, 3), 0, 0, Q(1, 2)), (1, 2, 3, 4)))
@example((root_system("G", 2), (0, Q(2, 5)), (1, 2)))
@example((root_system("A", 3), (1, 0, 1), (1, 3)))  # node 2 pairs with both components
def test_forest_solve_is_the_adjugate_formula(case):
    # the same integers as c = adj (m lam|_L), d = det m from sympy's determinant of C_L^T
    # and its adjugate, det times its inverse, not only the same Fractions: the polytope's
    # denominator is the lcm of the d
    rs, lam, nodes = case
    block = sympy.Matrix(sub_cartan(rs, nodes)).T
    det = int(block.det())
    adj = [[int(x) for x in row] for row in (det * block.inv()).tolist()]
    rhs, m = linalg._cleared([lam[n - 1] for n in nodes])
    c = [sum(a * b for a, b in zip(row, rhs)) for row in adj]
    pairings = {}
    for n, x in zip(nodes, c):
        for k in rs.neighbors(n):
            if k not in nodes:
                pairings[k] = pairings.get(k, 0) + x * rs.cartan[n - 1][k - 1]
    got = cone._levi_solve(rs, [lam[n - 1] for n in nodes], nodes)
    assert got == (c, det * m, pairings)
    assert all(type(x) is int for x in got[0] + [got[1], *got[2].values()])


def test_slices_scale_in_rank_without_a_block_inverse(monkeypatch):
    # A300 at w1: 301 vertices, each from one O(|L|) forest solve and none from an
    # inverse of its O(|L|^2) block; the vertex on {1..k} is w_{k+1} / (k+1), 0 for k = 300
    def refuse(*args, **kwargs):
        raise AssertionError("a slice solve inverted a block")

    rs = root_system("A", 300)
    monkeypatch.setattr(linalg, "solve_unique", refuse)
    verts = polytope_vertices(rs, fundamental_weight(rs, 1))
    assert len(verts) == 301
    for k, v in enumerate(verts):
        assert v.levi == tuple(range(1, k + 1))
        assert v.point == tuple(Q(int(j == k), k + 1) for j in range(300))


@pytest.mark.parametrize("enumerate_, solves", [
    (lambda: cli.main(["rays", "--type", "A", "--rank", "16", "--node", "8",
                       "--format", "pretty"]), 16),
    (lambda: all_rays(root_system("A", 12)), 12),
    (lambda: all_rays(root_system("E", 8)), 17),
    (lambda: polytope_vertices(root_system("A", 9), rho(root_system("A", 9))), 0),
    (lambda: cli.main(["rays", "--type", "E", "--rank", "8", "--format", "pretty"]), 17),
], ids=["cli-rays-A16-node8-pretty", "all_rays-A12", "all_rays-E8", "polytope_vertices-A9-rho",
        "cli-rays-E8-pretty"])
def test_one_solve_per_distinct_levi_block(monkeypatch, enumerate_, solves):
    # 72, 364, 160, 45 and 160 Levis; the same count on a second call: no cache outlives a
    # call.  The rays read block inverses, one dict per request serving every node and the
    # pretty blocks; the slice pieces are solved on the Dynkin forest
    for letter, r in (("A", 16), ("A", 12), ("E", 8), ("A", 9)):
        root_system(letter, r)
    calls = []
    solve_unique = linalg.solve_unique

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_unique(*args, **kwargs)

    monkeypatch.setattr(linalg, "solve_unique", counted)
    for _ in range(2):
        calls.clear()
        enumerate_()
        assert len(calls) == solves


def test_levi_inverses_are_keyed_by_shape():
    # every connected Levi's (adj, det) inverts C_L^T, and two Levis share a dict
    # entry exactly when their Cartan blocks are equal
    dets = {}
    for rs in systems(10):
        inverses, first = {}, {}
        levis = {s for i in rs.nodes() for s in connected_subsets_containing(rs, i)}
        for levi in sorted(levis):
            block = sub_cartan(rs, levi)
            adj, det = out = rootdata._levi_inverse(rs, levi, inverses)
            assert out is first.setdefault(block, out), (rs, levi)
            k = len(levi)
            assert [[sum(adj[a][m] * block[b][m] for m in range(k)) for b in range(k)]
                    for a in range(k)] == [[det * (a == b) for b in range(k)] for a in range(k)]
            if block not in dets:
                dets[block] = sympy.Matrix(block).det()
            assert det == dets[block], (rs, levi)
        assert len(inverses) == len(first), rs
    b5 = root_system("B", 5)
    assert sub_cartan(b5, (1, 2)) != sub_cartan(b5, (4, 5))
    inverses = {}
    assert (rootdata._levi_inverse(b5, (1, 2), inverses)
            != rootdata._levi_inverse(b5, (4, 5), inverses))
    assert len(inverses) == 2


def test_rays_distinct_per_node():
    for rs in systems(5):
        for i in range(1, rs.rank + 1):
            rays = rays_for_node(rs, i)
            assert len({r.mu_fw for r in rays}) == len(rays)


def test_all_rays_counts_small():
    assert len(all_rays(root_system("A", 2))) == 6
    assert len(all_rays(root_system("C", 2))) == 6
    assert len(all_rays(root_system("E", 6))) == 78


def test_extremality_examples():
    a1 = root_system("A", 1)
    assert is_extremal_ray(a1, (1,), (1,))
    assert is_extremal_ray(a1, (2,), (0,))
    assert not is_extremal_ray(a1, (2,), (1,))
    with pytest.raises(NotInConeError):
        is_extremal_ray(a1, (0,), (1,))


@pytest.mark.parametrize("letter", ["A", "D"])
def test_extremality_at_rank_240_builds_no_inverse(solve_calls, letter):
    # the tight forms on (lam | c) are unit vectors and Cartan columns: a fresh system
    # ranks them with no inverse of its Cartan matrix built
    rs, k = root_system(letter, 240), 120
    w = fundamental_weight(rs, k)
    point = vertex(rs, w, (k - 1, k, k + 1)).point
    for mu, extremal in ((point, True), (tuple((x + y) / 2 for x, y in zip(point, w)), False)):
        fresh = root_system.__wrapped__(letter, 240)  # cold: past the cache
        start = perf_counter()
        assert is_extremal_ray(fresh, w, mu) == extremal
        took = perf_counter() - start
        assert took < 0.5, (extremal, took)
    assert not solve_calls


def _fraction_verdicts(rs, lam, mu):
    # cone_contains and is_extremal_ray by their definitions: the test's own Fraction cone
    # forms on (lam | mu) at the pair, and the rank of the tight ones in sympy; None in
    # place of the extremality verdict where is_extremal_ray must raise
    forms = _fraction_forms(rs)
    values = [sum(c * x for c, x in zip(f, lam + mu)) for f in forms]
    if any(v < 0 for v in values):
        return False, None
    tight = [[sympy.Rational(c.numerator, c.denominator) for c in f]
             for f, v in zip(forms, values) if v == 0]
    rank = sympy.Matrix(tight).rank() if tight else 0
    return True, 2 * rs.rank - rank == 1


def _form_test_pairs(rng, rs):
    r = rs.rank

    def rational(lo):
        return Q(rng.randint(lo, 6), rng.randint(1, 3))

    lam = tuple(rational(0) for _ in range(r))
    # random pairs, with mu (and sometimes lam) not dominant
    pairs = [(tuple(rational(-1) for _ in range(r)), tuple(rational(-2) for _ in range(r)))
             for _ in range(4)]
    pairs += [(lam, tuple(rational(-1) for _ in range(r))) for _ in range(4)]
    # boundary pairs: lam = mu, a zero root coefficient, scaled rays, midpoints of two rays
    pairs.append((lam, lam))
    c = [rng.choice((0, Q(1, 2), 1)) for _ in range(r)]
    c[rng.randrange(r)] = 0
    pairs.append((lam, tuple(a - b for a, b in zip(lam, root_coords_to_fw(rs, c)))))
    rays = all_rays(rs)
    for _ in range(4):
        a, b = rng.choice(rays), rng.choice(rays)
        k = Q(rng.randint(1, 5), rng.randint(1, 3))
        pairs.append((tuple(k * x for x in a.lambda_fw), tuple(k * x for x in a.mu_fw)))
        pairs.append((tuple((x + y) / 2 for x, y in zip(a.lambda_fw, b.lambda_fw)),
                      tuple((x + y) / 2 for x, y in zip(a.mu_fw, b.mu_fw))))
    return pairs


def test_integer_form_verdicts_match_fraction_definitions():
    rng = random.Random(83)
    seen = set()
    for rs in systems(6):
        for lam, mu in _form_test_pairs(rng, rs):
            member, extremal = _fraction_verdicts(rs, lam, mu)
            assert cone_contains(rs, lam, mu) == member, (rs, lam, mu)
            if extremal is None:
                with pytest.raises(NotInConeError):
                    is_extremal_ray(rs, lam, mu)
            else:
                assert is_extremal_ray(rs, lam, mu) == extremal, (rs, lam, mu)
            seen.add(extremal)
    assert seen == {None, False, True}


@st.composite
def _member_pairs(draw):
    """A member pair of a type up to rank 9: a scaled ray, the sum of two rays (one
    ray scaled when they coincide), or a dominant lam less a nonnegative integer
    combination of simple roots that leaves mu dominant."""
    letter, r = draw(st.sampled_from(supported_types(9)))
    rs = root_system(letter, r)
    kind = draw(st.sampled_from(("ray", "sum", "random")))
    if kind == "random":
        lam = draw(st.lists(st.integers(0, 3), min_size=r, max_size=r))
        c = draw(st.lists(st.integers(0, 2), min_size=r, max_size=r))
        mu = [x - sum(y * rs.cartan[m][n] for m, y in enumerate(c)) for n, x in enumerate(lam)]
        assume(min(mu) >= 0)
        return rs, tuple(lam), tuple(mu)
    rays = all_rays(rs)
    a, b = draw(st.sampled_from(rays)), draw(st.sampled_from(rays))
    if kind == "ray":
        t = draw(st.fractions(Q(1, 3), 3, max_denominator=3))
        return rs, tuple(t * x for x in a.lambda_fw), tuple(t * x for x in a.mu_fw)
    return (rs, tuple(x + y for x, y in zip(a.lambda_fw, b.lambda_fw)),
            tuple(x + y for x, y in zip(a.mu_fw, b.mu_fw)))


@settings(max_examples=400, deadline=None)
@given(_member_pairs())
@example((root_system("E", 6), (0,) * 6, (0,) * 6))  # the apex: no ray
@example((root_system("D", 5), (0, 1, 0, 0, 0), (0, 1, 0, 0, 0)))  # (w_i, w_i): a ray
@example((root_system("B", 4), (0, 0, 0, 1), (0, 0, 0, 1)))
def test_check_classifies_extremality_as_the_rank_test(case):
    # check's classification by the paper's theorem against the independent rank test
    rs, lam, mu = case
    values = cone._form_values(rs, lam, mu)  # the values membership read, handed over
    assert cone._is_ray(rs, lam, mu, values) == is_extremal_ray(rs, lam, mu), case
    assert cone._is_ray(rs, lam, mu, None) == is_extremal_ray(rs, lam, mu), case  # read there


def test_every_ray_is_extremal_small():
    for rs in systems(4):
        for ray in all_rays(rs):
            assert is_extremal_ray(rs, ray.lambda_fw, ray.mu_fw)


def test_count_formula_values():
    assert ray_count_formula("A", 1) == 2
    assert ray_count_formula("F", 4) == 24
    assert ray_count_formula("E", 8) == 168
    assert ray_count_formula("D", 4) == 27
    assert ray_count_formula("G", 2) == 6
    assert ray_count_formula("B", 5) == ray_count_formula("A", 5)


def test_formula_matches_enumeration_to_rank_6():
    for letter, r in supported_types(6):
        assert len(all_rays(root_system(letter, r))) == ray_count_formula(letter, r)

