import gc
import importlib
import pkgutil
import random
import re
from fractions import Fraction as Q
from time import perf_counter

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.utilities.iterables import connected_components

from conftest import all_subsets, supported_types, systems
import kostka
from kostka import (compare_membership_multiplicity, components, cone_inequalities,
                    connected_subsets_containing, fundamental_weight, fw_to_root_coords,
                    is_connected, is_dominant, is_extremal_ray, levi_factors, levi_root_coords,
                    node_set, orbit, parabolic_average, parabolic_order, positive_roots,
                    rays_for_node, rho, root_coords_to_fw, root_system, simple_reflection,
                    sub_cartan, vertex, weight_multiplicity, weyl_order)
from kostka import cli, oracle, rootdata, weyl
from kostka.errors import EmptyNodeSetError, UnsupportedRankError
from kostka.rootdata import symmetrizer

POSITIVE_ROOT_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}


def test_cartan_examples():
    assert root_system("A", 2).cartan == ((2, -1), (-1, 2))
    assert root_system("C", 2).cartan == ((2, -1), (-2, 2))
    assert root_system("G", 2).cartan == ((2, -1), (-3, 2))
    assert root_system("B", 2).cartan == ((2, -2), (-1, 2))


def test_cartan_invariants():
    for rs in systems(8):
        r = rs.rank
        for i in range(r):
            assert rs.cartan[i][i] == 2
            for j in range(r):
                if i != j:
                    assert rs.cartan[i][j] in (0, -1, -2, -3)
                    assert (rs.cartan[i][j] == 0) == (rs.cartan[j][i] == 0)


def _dense_root_data(letter, rank):
    # root data as root_system built it before it kept the Dynkin edges: the dense
    # matrix filled from the edges, and each node's neighbours by a scan of its whole row
    rows = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j, cij, cji in rootdata._edges(letter, rank):
        rows[i - 1][j - 1], rows[j - 1][i - 1] = cij, cji
    return tuple(map(tuple, rows)), {i: tuple([j for j, x in enumerate(row, 1) if x and j != i])
                                     for i, row in enumerate(rows, 1)}


def test_edges_give_the_dense_root_data():
    for letter, rank in supported_types(60) + [(letter, 2000) for letter in "ABCD"]:
        rs = root_system.__wrapped__(letter, rank)  # a fresh system, past the cache
        cartan, neighbors = _dense_root_data(letter, rank)
        assert rs._neighbors == neighbors, rs
        assert rs._entries == {i: tuple([(j, cartan[i - 1][j - 1], cartan[j - 1][i - 1])
                                         for j in nbrs]) for i, nbrs in neighbors.items()}, rs
        assert "cartan" not in vars(rs)  # built on its first read, then kept
        assert rs.cartan == cartan and rs.cartan is rs.cartan, rs


def test_a5000_is_built_in_linear_time():
    # the build alone is timed: a full collection of the heap earlier tests left behind
    # (some 80 ms late in a full run) neither falls inside it nor is set off by it
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        rs = root_system.__wrapped__("A", 5000)
        took = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    assert rs.neighbors(1) == (2,) and rs.neighbors(2500) == (2499, 2501)
    assert "cartan" not in vars(rs)
    assert took < 0.05, took


@pytest.mark.parametrize("argv", [
    ["rays", "--type", "E", "--rank", "7", "--format", "json"],
    ["rays", "--type", "D", "--rank", "6", "--node", "3", "--format", "tsv"],
    ["rays", "--type", "C", "--rank", "5", "--node", "2"],
    ["vertices", "--type", "B", "--rank", "5", "--lambda", "1,0,2,0,1", "--format", "json"],
], ids=["rays-json", "rays-tsv", "rays-pretty", "vertices"])
def test_rays_and_vertices_never_build_the_dense_cartan(monkeypatch, capsys, argv):
    # they read only the entries on Dynkin edges; the pretty ray block builds each
    # Levi block from them
    made = []

    def fresh(letter, rank):
        made.append(root_system.__wrapped__(letter, rank))
        return made[-1]

    monkeypatch.setattr(cli, "root_system", fresh)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert len(made) == 1 and "cartan" not in vars(made[0])


def test_no_reader_builds_the_dense_cartan():
    # the Levi factors, the root lengths, the positive roots and the oracles walk the
    # Dynkin edges; only a caller that reads cartan or sub_cartan builds the matrix
    a3000 = root_system.__wrapped__("A", 3000)
    assert parabolic_order(a3000, (1, 2)) == 6
    assert "cartan" not in vars(a3000)
    for letter, rank in (("B", 4), ("C", 3), ("D", 5), ("E", 6), ("F", 4), ("G", 2)):
        rs = root_system.__wrapped__(letter, rank)
        lam = (1,) + (0,) * (rank - 2) + (1,)
        levi_factors(rs, rs.nodes())
        parabolic_order(rs, rs.nodes()[1:])
        symmetrizer(rs)
        positive_roots(rs)
        assert weight_multiplicity(rs, lam, simple_reflection(rs, 1, lam)) == 1  # a Weyl image
        assert compare_membership_multiplicity(rs, lam, (0,) * rank).agrees
        assert "cartan" not in vars(rs), rs
    assert sub_cartan(rs, (1, 2)) == ((2, -1), (-3, 2)) and "cartan" not in vars(rs)
    assert rs.cartan == ((2, -1), (-3, 2)) and "cartan" in vars(rs)


def test_a_node_set_is_read_once_by_the_group_order(monkeypatch):
    # components reads the node set, and parabolic_order and levi_factors classify its
    # components; parabolic_average reads it for itself, its group order and its orbit
    d5, calls = root_system("D", 5), []
    average = parabolic_average(d5, (1, 0, 0, 0, 1), (1, 2, 5))

    def counted(rs, nodes):
        calls.append(nodes)
        return node_set(rs, nodes)

    monkeypatch.setattr(rootdata, "node_set", counted)
    monkeypatch.setattr(weyl, "node_set", counted)
    for call, nodes, out, n in [(parabolic_order, [5, 4, 3, 2, 1], 1920, 1),
                                (parabolic_order, (), 1, 1),
                                (levi_factors, (1, 2, 5), (("A", 2, (1, 2)), ("A", 1, (5,))), 1),
                                (parabolic_average, (1, 2, 5), average, 3)]:
        calls.clear()
        args = (d5, (1, 0, 0, 0, 1), nodes) if call is parabolic_average else (d5, nodes)
        assert call(*args) == out and len(calls) == n, call.__name__


def test_unsupported_ranks():
    for letter, rank in (("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5),
                         ("E", 9), ("F", 3), ("G", 3), ("X", 2)):
        with pytest.raises(UnsupportedRankError):
            root_system(letter, rank)
    # a rank that is not an integer is refused before anything is built or looked up
    for letter, rank in (("E", 6.5), ("A", "3"), ("A", None), ("A", float("nan"))):
        for build in (root_system, root_system.__wrapped__, weyl_order, kostka.ray_count_formula):
            with pytest.raises(UnsupportedRankError, match=f"got {re.escape(repr(rank))}$"):
                build(letter, rank)


def test_a_type_is_read_once():
    # an integral rank is read as its int and the letter upper-cased: one system per type,
    # whether or not it was built before
    a3 = root_system("A", 3)
    assert root_system("a", 3) is a3 and root_system("a", 3.0) is a3
    fresh = root_system.__wrapped__("A", 3.0)
    assert fresh is not a3 and fresh == a3 and type(fresh.rank) is int and fresh.nodes() == (1, 2, 3)
    assert repr(root_system("A", True)) == "RootSystem(A1)"
    assert root_system("A", True) is root_system("A", 1)
    assert weyl_order("E", 6.0) == weyl_order("e", 6) == 51840
    assert rootdata.validate_type("b", 2.0) == ("B", 2)


def test_root_systems_are_equal_by_their_edges():
    # the letter and rank do not determine the Cartan matrix of a system built from its
    # edges: the singular C3 that the cone's invariant tests build is not C3
    c3 = root_system("C", 3)
    singular = rootdata.RootSystem("C", 3, [(1, 2, -1, -1), (2, 3, -2, -2)])
    assert singular != c3 and c3 != singular
    # the same edges in another order and orientation: the same system
    assert rootdata.RootSystem("C", 3, [(3, 2, -2, -1), (1, 2, -1, -1)]) == c3


def test_rho():
    assert rho(root_system("A", 1)) == (1,)
    assert rho(root_system("C", 4)) == (1, 1, 1, 1)
    assert rho(root_system("E", 6)) == (1,) * 6


def test_fw_to_root_coords_examples():
    c2 = root_system("C", 2)
    assert fw_to_root_coords(c2, (1, 0)) == (1, Q(1, 2))
    a1 = root_system("A", 1)
    assert fw_to_root_coords(a1, (1,)) == (Q(1, 2),)
    assert fw_to_root_coords(c2, (0, 0)) == (0, 0)


def test_root_coords_to_fw_examples():
    # alpha_1 in C2 is 2w1 - w2: its fw vector is the first *row* of the
    # Cartan matrix under the pinned pairing convention, as forced by the
    # inverse relation with fw_to_root_coords (w1 = a1 + a2/2).
    c2 = root_system("C", 2)
    assert root_coords_to_fw(c2, (1, 0)) == (2, -1)
    assert fw_to_root_coords(c2, root_coords_to_fw(c2, (1, 0))) == (1, 0)
    a2 = root_system("A", 2)
    assert root_coords_to_fw(a2, (1, 1)) == (1, 1)
    assert root_coords_to_fw(a2, (0, 0)) == (0, 0)
    # Fraction coefficients give Fraction coordinates, also where they all vanish
    for c in ((Q(0), Q(0)), (Q(1, 2), Q(0))):
        assert all(type(x) is Q for x in root_coords_to_fw(a2, c))
    assert root_coords_to_fw(a2, (Q(1, 2), Q(0))) == (1, Q(-1, 2))


def test_conversion_roundtrip_random():
    rng = random.Random(3)
    for rs in systems(8):
        for _ in range(5):
            w = tuple(Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rs.rank))
            assert root_coords_to_fw(rs, fw_to_root_coords(rs, w)) == w
            assert tuple(fw_to_root_coords(rs, root_coords_to_fw(rs, w))) == w


def test_inverse_cartan_positivity():
    # dominant weights pair strictly positively with the fundamental coweights:
    # C^-T = adj / det is positive entrywise
    for rs in systems(8):
        adj, det = rootdata._levi_inverse(rs, rs.nodes(), {})
        assert det > 0
        for row in adj:
            assert all(x > 0 for x in row)


def test_inverse_transpose_cartan_matches_sympy():
    for rs in systems(10):
        inv = sympy.Matrix(rs.cartan).T.inv()
        adj, det = rootdata._levi_inverse(rs, rs.nodes(), {})
        assert tuple(tuple(Q(x, det) for x in row) for row in adj) == tuple(
            tuple(Q(int(inv[i, j].p), int(inv[i, j].q)) for j in range(rs.rank))
            for i in range(rs.rank)), rs


def test_root_system_inverts_on_first_use_only(solve_calls):
    # the cone's forms on (lam | c) are read from the Cartan matrix, with no inverse, on
    # their first read, and kept on the system
    rs = root_system.__wrapped__("A", 60)  # a fresh system, past the cache
    forms = cone_inequalities(rs)
    # dom-mu(1) is e_1 less column 1 of the Cartan matrix, (2, -1, 0, ...), on the c half
    assert forms[60].coeffs == (1,) + (0,) * 59 + (-2, 1) + (0,) * 58
    assert forms[-1].coeffs == (0,) * 119 + (1,)
    assert cone_inequalities(rs) is forms
    assert not solve_calls


def test_a300_inverts_within_a_second():
    # Levi and Cartan blocks are Dynkin trees: the kernel inverts them in O(k^2)
    rs = root_system.__wrapped__("A", 300)  # a fresh system, past the cache
    start = perf_counter()
    adj, det = rootdata._levi_inverse(rs, rs.nodes(), {})
    took = perf_counter() - start
    assert det == 301
    # adj C^T = det I, with row j of C^T nonzero only at j and its neighbours
    for i, row in enumerate(adj, 1):
        assert [sum(row[m - 1] * rs.cartan[j - 1][m - 1] for m in (j, *rs.neighbors(j)))
                for j in rs.nodes()] == [det * (j == i) for j in rs.nodes()]
    assert took < 1.0, took


def test_a_fresh_root_system_builds_its_own_tables(solve_calls):
    # what is derived from a root system is kept on it, not shared with an equal one
    cached = root_system("A", 3)
    assert is_extremal_ray(cached, (0, 1, 0), (0, 1, 0))  # (w2, w2): a ray
    fresh = root_system.__wrapped__("A", 3)
    assert fresh == cached
    assert is_extremal_ray(fresh, (0, 1, 0), (0, 1, 0))
    assert not solve_calls  # the forms on (lam | c) are read from the Cartan matrix
    assert cone_inequalities(fresh) is not cone_inequalities(cached)
    assert oracle._root_table(fresh) is not oracle._root_table(cached)


def test_only_root_system_and_build_parser_are_module_caches():
    # a cache keyed by root systems belongs on the root system (rootdata._per_system)
    cached = set()
    for info in pkgutil.iter_modules(kostka.__path__):
        mod = importlib.import_module(f"kostka.{info.name}")
        for obj in vars(mod).values():
            if callable(obj) and hasattr(obj, "cache_info"):
                cached.add(f"{obj.__module__}.{obj.__qualname__}")
    assert cached == {"kostka.rootdata.root_system", "kostka.cli.build_parser"}


def test_node_ids_must_be_integers():
    a3 = root_system("A", 3)
    # int() would cut 1.5 down to node 1 and 2.9 to node 2
    with pytest.raises(ValueError, match=r"^node ids must be integers: 1\.5$"):
        node_set(a3, [1.5, 2.9])
    assert node_set(a3, [3, 2.0, Q(1)]) == (1, 2, 3)
    for call, bad in [(lambda: vertex(a3, (1, 1, 1), [1.5]), "1.5"),
                      (lambda: orbit(a3, (1, 0, 0), (1, Q(5, 2))), "Fraction(5, 2)"),
                      (lambda: levi_root_coords(a3, (1, 2.5), (1, 1)), "2.5")]:
        with pytest.raises(ValueError, match=f"^node ids must be integers: {re.escape(bad)}$"):
            call()
    # one node id is read as node_set reads one: 2.0 is node 2, 1.5 is refused
    assert fundamental_weight(a3, 2.0) == fundamental_weight(a3, 2) == (0, 1, 0)
    assert rays_for_node(a3, 2.0) == rays_for_node(a3, 2)
    assert connected_subsets_containing(a3, Q(2)) == connected_subsets_containing(a3, 2)
    assert simple_reflection(a3, 2.0, (0, 1, 0)) == simple_reflection(a3, 2, (0, 1, 0))
    reflect = lambda rs, i: simple_reflection(rs, i, (1, 0, 0))  # w[-1] would read node 3 at 0
    not_an_integer = lambda bad: f"^node ids must be integers: {re.escape(repr(bad))}$"
    for call in (fundamental_weight, rays_for_node, connected_subsets_containing, reflect):
        for bad in (1.5, "2", None):
            with pytest.raises(ValueError, match=not_an_integer(bad)):
                call(a3, bad)
        for bad in (0, 4):
            with pytest.raises(ValueError, match=f"^node {bad} out of range 1..3$"):
                call(a3, bad)
    for bad in (None, "1", float("inf")):  # int() raises TypeError, reads '1', or overflows
        with pytest.raises(ValueError, match=not_an_integer(bad)):
            node_set(a3, [1, bad])


def test_root_coords_at_a2000_are_the_closed_form(solve_calls):
    # C^-1 of A_r is min(j, k) - jk / (r + 1), read by one forest solve: no inverse is built
    rs = root_system.__wrapped__("A", 2000)
    r = rs.rank
    for k in (1, 2, 700, 1999, 2000):
        assert fw_to_root_coords(rs, fundamental_weight(rs, k)) == tuple(
            min(j, k) - Q(j * k, r + 1) for j in rs.nodes()), k
    assert not solve_calls


def test_dominant_root_coords_nonnegative():
    rng = random.Random(5)
    for rs in systems(6):
        for _ in range(5):
            w = tuple(rng.randint(0, 4) for _ in range(rs.rank))
            coords = fw_to_root_coords(rs, w)
            assert all(c >= 0 for c in coords)
            if any(w):
                assert all(c > 0 for c in coords)


def test_connected_subsets_examples():
    a2 = root_system("A", 2)
    assert connected_subsets_containing(a2, 1) == [(1,), (1, 2)]
    c4 = root_system("C", 4)
    assert connected_subsets_containing(c4, 3) == [
        (3,), (2, 3), (3, 4), (1, 2, 3), (2, 3, 4), (1, 2, 3, 4)]
    d4 = root_system("D", 4)
    assert len(connected_subsets_containing(d4, 2)) == 8


def test_connected_subsets_against_filter():
    for rs in systems(6):
        for i in range(1, rs.rank + 1):
            brute = sorted((s for s in all_subsets(rs.rank)
                            if i in s and is_connected(rs, s)),
                           key=lambda t: (len(t), t))
            assert connected_subsets_containing(rs, i) == brute


def test_is_connected_examples():
    a3 = root_system("A", 3)
    assert not is_connected(a3, (1, 3))
    assert is_connected(a3, (1, 2, 3))
    assert not is_connected(a3, ())
    d4 = root_system("D", 4)
    assert not is_connected(d4, (1, 3, 4))


def test_components_examples():
    a3 = root_system("A", 3)
    assert components(a3, (1, 3)) == ((1,), (3,))
    c4 = root_system("C", 4)
    assert components(c4, (1, 2, 4)) == ((1, 2), (4,))
    assert components(c4, ()) == ()


def _sympy_components(rs, nodes):
    # an independent reference: sympy's connected components of the graph whose edges are
    # the nonzero entries of the Cartan block off its diagonal, each sorted, by least node
    block = sub_cartan(rs, nodes)
    edges = [(nodes[a], nodes[b]) for a, row in enumerate(block) for b, x in enumerate(row)
             if a != b and x]
    return tuple(sorted(tuple(sorted(c)) for c in connected_components((list(nodes), edges))))


def test_components_agree_with_sympy_on_every_node_set():
    for letter, r in supported_types(8):
        rs = root_system(letter, r)
        for nodes in all_subsets(r):
            comps = _sympy_components(rs, nodes)
            assert components(rs, nodes) == comps, (rs, nodes)
            assert is_connected(rs, nodes) == (len(comps) == 1), (rs, nodes)


@st.composite
def _classical_node_sets(draw):
    # a type A, B, C or D of rank up to 40 and a set of its nodes
    letter = draw(st.sampled_from("ABCD"))
    r = draw(st.integers(rootdata.RANK_BOUNDS[letter][0], 40))
    return root_system(letter, r), tuple(sorted(draw(st.sets(st.integers(1, r)))))


@settings(max_examples=200, deadline=None)
@given(_classical_node_sets())
def test_components_agree_with_sympy_up_to_rank_40(case):
    rs, nodes = case
    comps = _sympy_components(rs, nodes)
    assert components(rs, nodes) == comps
    assert is_connected(rs, nodes) == (len(comps) == 1)


def test_levi_factors_examples():
    c4 = root_system("C", 4)
    assert [(f.letter, f.rank) for f in levi_factors(c4, (2, 3))] == [("A", 2)]
    assert [(f.letter, f.rank) for f in levi_factors(c4, (3, 4))] == [("C", 2)]
    # the restricted Cartan matrix is the plain submatrix on the node set
    assert sub_cartan(c4, (2, 3)) == root_system("A", 2).cartan
    assert sub_cartan(c4, (3, 4)) == root_system("C", 2).cartan
    assert [(f.letter, f.rank) for f in levi_factors(c4, (2, 3, 4))] == [("C", 3)]
    f4 = root_system("F", 4)
    assert [(f.letter, f.rank) for f in levi_factors(f4, (1, 2, 3))] == [("B", 3)]
    assert [(f.letter, f.rank) for f in levi_factors(f4, (2, 3, 4))] == [("C", 3)]
    assert [(f.letter, f.rank) for f in levi_factors(f4, (2, 3))] == [("B", 2)]
    d4 = root_system("D", 4)
    assert [(f.letter, f.rank) for f in levi_factors(d4, (1, 3, 4))] == [("A", 1)] * 3
    e8 = root_system("E", 8)
    assert [(f.letter, f.rank) for f in levi_factors(e8, (2, 3, 4, 5))] == [("D", 4)]
    assert [(f.letter, f.rank) for f in levi_factors(e8, (1, 2, 3, 4, 5, 6, 7))] == [("E", 7)]
    with pytest.raises(EmptyNodeSetError):
        levi_factors(c4, ())


def test_levi_factor_order_product_matches_group():
    # |W_I| for a full node set is the whole Weyl group order
    from kostka import parabolic_order
    for rs in systems(8):
        assert parabolic_order(rs, rs.nodes()) == weyl_order(rs.letter, rs.rank)
        assert parabolic_order(rs, ()) == 1


def test_positive_roots_small():
    a2 = root_system("A", 2)
    assert set(positive_roots(a2)) == {(1, 0), (0, 1), (1, 1)}
    c2 = root_system("C", 2)
    assert set(positive_roots(c2)) == {(1, 0), (0, 1), (1, 1), (2, 1)}
    assert len(positive_roots(root_system("G", 2))) == 6


def test_positive_root_counts():
    for letter, r in supported_types(20):
        rs = root_system(letter, r)
        roots = positive_roots(rs)
        assert len(roots) == POSITIVE_ROOT_COUNTS[letter](r)
        assert rootdata._positive_root_count(letter, r) == len(roots)  # the closed form
        # closed under the simple reflections s_i beta = beta - <beta, alpha_i_vee> alpha_i,
        # alpha_i itself aside (it goes to -alpha_i)
        known = set(roots)
        for beta in roots:
            for i, pairing in enumerate(root_coords_to_fw(rs, beta)):
                if beta != tuple(int(j == i) for j in range(r)):
                    assert beta[:i] + (beta[i] - pairing,) + beta[i + 1:] in known, (rs, beta, i)


def test_levi_factors_count_the_roots_they_support():
    # an independent count: the roots of the Levi on S are the positive roots supported
    # in S (root closure, which shares no code with the classification), and a factor
    # of letter X and rank k has the closed-form |Phi+| of X_k.  Only a B <-> C swap
    # keeps the count; test_levi_factors_examples pins those
    for letter, r in supported_types(8):
        rs = root_system(letter, r)
        supports = [sum(1 << j for j, c in enumerate(beta) if c) for beta in positive_roots(rs)]
        for nodes in all_subsets(r):
            if nodes:
                mask = sum(1 << (n - 1) for n in nodes)
                count = sum(rootdata._positive_root_count(f.letter, f.rank)
                            for f in levi_factors(rs, nodes))
                assert count == sum(1 for s in supports if s & mask == s), (rs, nodes)


def test_weyl_orders():
    assert weyl_order("A", 2) == 6
    assert weyl_order("C", 2) == 8
    assert weyl_order("D", 4) == 192
    assert weyl_order("F", 4) == 1152
    assert weyl_order("E", 8) == 696729600


def test_symmetrizer():
    assert symmetrizer(root_system("A", 3)) == (1, 1, 1)
    assert symmetrizer(root_system("C", 3)) == (1, 1, 2)
    assert symmetrizer(root_system("B", 3)) == (2, 2, 1)
    assert symmetrizer(root_system("G", 2)) == (1, 3)
    assert symmetrizer(root_system("F", 4)) == (2, 2, 1, 1)


def test_fundamental_weight_and_dominance():
    c3 = root_system("C", 3)
    assert fundamental_weight(c3, 2) == (0, 1, 0)
    assert is_dominant((0, 2, 1))
    assert not is_dominant((0, -1, 3))
    with pytest.raises(ValueError):
        fundamental_weight(c3, 4)


def test_only_the_whole_diagram_keeps_its_forest():
    # a slice solves many pieces and keeps none of their forests: the one kept is the whole
    # diagram's, walked when a piece is every node, and read again by the symmetrizer
    rs = root_system.__wrapped__("A", 6)
    kostka.polytope_vertices(rs, (1, 0, 0, 0, 0, 1))
    assert list(rs._memo) == [(rootdata._diagram_forest.__wrapped__, ())]
    forest = rs._memo[rootdata._diagram_forest.__wrapped__, ()]
    assert symmetrizer(rs) == (1,) * 6 and rootdata._diagram_forest(rs) is forest
