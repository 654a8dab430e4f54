import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import supported_types, systems
import kostka
from kostka import levi as levi_module
from kostka import linalg, rootdata
from kostka import (LeviWeightPair, cone_contains, components, extend_by_zero,
                    induce, induce_between, induce_sum, induce_vertex, induction_composes,
                    levi_cone_contains, levi_root_coords, rays_for_node,
                    restrict, root_system, vertex)
from kostka.errors import (KostkaError, NotDominantError, NotInLeviConeError,
                           OverlappingLevisError)
from kostka.rootdata import is_dominant, node_set, root_coords_to_fw


def test_extend_by_zero_examples():
    c4 = root_system("C", 4)
    assert extend_by_zero(c4, (3,), (2,)) == (0, 0, 2, 0)
    assert extend_by_zero(c4, (2, 3), (0, 3)) == (0, 0, 3, 0)
    assert extend_by_zero(c4, (1, 2), (0, 0)) == (0, 0, 0, 0)
    with pytest.raises(NotDominantError):
        extend_by_zero(c4, (3,), (-1,))
    # refused as the CLI prints a weight, not as a tuple of Fraction reprs
    with pytest.raises(NotDominantError, match="^weight 1/2,-1 is not dominant$"):
        extend_by_zero(root_system("A", 2), (1, 2), (Q(1, 2), -1))
    with pytest.raises(ValueError):
        extend_by_zero(c4, (3,), (1, 2))


def test_restrict_inverts_extension():
    c4 = root_system("C", 4)
    assert restrict(c4, (2, 4), extend_by_zero(c4, (2, 4), (3, 5))) == (3, 5)


def test_induce_examples():
    c4 = root_system("C", 4)
    lam, mu = induce(c4, LeviWeightPair((1, 2, 3), (0, 0, 4), (0, 0, 0)))
    assert (lam, mu) == ((0, 0, 4, 0), (0, 0, 0, 3))
    lam, mu = induce(c4, LeviWeightPair((1, 2, 3, 4), (0, 0, 2, 0), (0, 0, 2, 0)))
    assert (lam, mu) == ((0, 0, 2, 0), (0, 0, 2, 0))
    lam, mu = induce(c4, LeviWeightPair((2, 3), (0, 0), (0, 0)))
    assert (lam, mu) == ((0, 0, 0, 0), (0, 0, 0, 0))


def test_induce_rejects_outside_pairs():
    c4 = root_system("C", 4)
    with pytest.raises(NotInLeviConeError):
        induce(c4, LeviWeightPair((1,), (0,), (1,)))
    with pytest.raises(NotInLeviConeError):
        # A2 factor: w1 - w2 has a negative root coefficient
        induce(c4, LeviWeightPair((1, 2), (1, 0), (0, 1)))


def test_induce_solves_the_inner_levi_once(monkeypatch):
    # one Levi solve, on the Dynkin forest: no block is inverted, and the lift is read
    # from the solve's pairings, not re-derived through root_coords_to_fw
    solves, inverses = [], []
    levi_solve, solve_unique = levi_module._levi_solve, linalg.solve_unique

    def counted(calls, fn):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapped

    def unused(*args):
        raise AssertionError("root_coords_to_fw called")

    monkeypatch.setattr(levi_module, "_levi_solve", counted(solves, levi_solve))
    monkeypatch.setattr(linalg, "solve_unique", counted(inverses, solve_unique))
    monkeypatch.setattr(rootdata, "root_coords_to_fw", unused)
    monkeypatch.setattr(kostka, "root_coords_to_fw", unused)
    c5 = root_system("C", 5)
    pair = LeviWeightPair((1, 2, 4), (2, 1, 1), (0, 1, 0))
    lam, mu = induce(c5, pair)
    assert (len(solves), len(inverses)) == (1, 0)
    assert (lam, mu) == ((2, 1, 0, 1, 0), (0, 1, Q(7, 6), 0, Q(1, 2)))
    assert induction_composes(c5, pair, (1, 2, 3, 4))
    # one solve per distinct lift: direct (read on mid too), then on from mid
    assert (len(solves), len(inverses)) == (3, 0)
    # the refusal keeps its class and message
    with pytest.raises(NotInLeviConeError) as exc:
        induce(c5, LeviWeightPair((1, 2), (1, 0), (0, 1)))
    assert str(exc.value) == "((1, 0), (0, 1)) is not in the cone of (1, 2)"


def test_levi_membership_is_componentwise():
    c4 = root_system("C", 4)
    levi = (1, 2, 4)
    lam = (2, 1, 3)
    mu = (0, 0, 1)
    whole = levi_cone_contains(c4, levi, lam, mu)
    per_comp = True
    for comp in components(c4, levi):
        lam_c = tuple(lam[levi.index(n)] for n in comp)
        mu_c = tuple(mu[levi.index(n)] for n in comp)
        per_comp = per_comp and levi_cone_contains(c4, comp, lam_c, mu_c)
    assert whole == per_comp
    # and a pair that fails in exactly one factor fails overall
    bad_mu = (0, 0, 5)
    assert not levi_cone_contains(c4, levi, lam, bad_mu)
    assert levi_cone_contains(c4, (1, 2), (2, 1), (0, 0))


def test_levi_root_coords_block_solve():
    c4 = root_system("C", 4)
    coords = levi_root_coords(c4, (1, 3), (2, 2))
    assert coords == (1, 1)  # two A1 factors, each halving its pairing
    with pytest.raises(ValueError):
        levi_root_coords(c4, (1, 3), (2,))


def test_induce_vertex_examples():
    c4 = root_system("C", 4)
    v = induce_vertex(c4, (3, 4), (2, 0), (3, 4))
    assert v.point == (0, 2, 0, 0)
    assert v.levi == (3, 4)
    v = induce_vertex(c4, c4.nodes(), (1, 0, 2, 0), ())
    assert v.point == (1, 0, 2, 0)
    # C2 factor inside C4, inner {3}: matches the ambient vertex solve
    v = induce_vertex(c4, (3, 4), (2, 0), (3,))
    assert v.point == vertex(c4, (0, 0, 2, 0), (3,)).point == (0, 1, 0, 1)


def test_induce_vertex_matches_ambient_solve():
    rng = random.Random(31)
    for rs in systems(5):
        for _ in range(5):
            levi = tuple(i for i in range(1, rs.rank + 1) if rng.random() < 0.6)
            if not levi:
                continue
            lam_local = tuple(rng.randint(0, 3) for _ in levi)
            inner = tuple(n for n in levi if rng.random() < 0.5)
            got = induce_vertex(rs, levi, lam_local, inner)
            lam = extend_by_zero(rs, levi, lam_local)
            expect = vertex(rs, lam, inner)
            assert got == expect


def test_composition_examples():
    c4 = root_system("C", 4)
    assert induction_composes(c4, LeviWeightPair((3,), (1,), (1,)), (2, 3))
    assert induction_composes(c4, LeviWeightPair((3,), (1,), (1,)), (3,))
    assert induction_composes(c4, LeviWeightPair((3,), (1,), (1,)), (3, 4))
    # containment is checked before the pair is lifted, so a pair outside its Levi's cone
    # on a Levi outside mid is refused for the containment, as induce_between refuses it
    a3, pair = root_system("A", 3), LeviWeightPair((1, 2), (0, 0), (1, 0))
    for refuse in (lambda: induction_composes(a3, pair, (3,)),
                   lambda: induce_between(a3, pair.levi, (3,), pair.lambda_fw, pair.mu_fw)):
        with pytest.raises(ValueError, match=r"^\(1, 2\) is not contained in \(3,\)$"):
            refuse()


def test_composition_randomised():
    rng = random.Random(33)
    for rs in systems(5):
        trials = 0
        while trials < 20:
            inner = tuple(i for i in range(1, rs.rank + 1) if rng.random() < 0.4)
            mid = tuple(sorted(set(inner) | {i for i in range(1, rs.rank + 1)
                                             if rng.random() < 0.5}))
            if not inner:
                continue
            lam_local = tuple(rng.randint(0, 3) for _ in inner)
            pair = LeviWeightPair(inner, lam_local, (0,) * len(inner))
            assert induction_composes(rs, pair, mid)
            trials += 1


def test_induced_pairs_land_in_cone():
    rng = random.Random(35)
    for rs in systems(5):
        for _ in range(10):
            levi = tuple(i for i in range(1, rs.rank + 1) if rng.random() < 0.5)
            if not levi:
                continue
            lam_local = tuple(rng.randint(0, 3) for _ in levi)
            mu_local = _random_levi_partner(rng, rs, levi, lam_local)
            lam, mu = induce(rs, LeviWeightPair(levi, lam_local, mu_local))
            assert cone_contains(rs, lam, mu)


def _random_levi_partner(rng, rs, levi, lam_local):
    for _ in range(60):
        cand = tuple(rng.randint(0, 3) for _ in levi)
        if levi_cone_contains(rs, levi, lam_local, cand):
            return cand
    return (0,) * len(levi)


def test_induce_sum_matches_joint_vertex():
    c4 = root_system("C", 4)
    pairs = []
    for node in (1, 3):
        lam_local = (1,)
        v = induce_vertex(c4, (node,), lam_local, (node,))
        pairs.append(LeviWeightPair((node,), lam_local, restrict(c4, (node,), v.point)))
    lam, mu = induce_sum(c4, pairs)
    assert lam == (1, 0, 1, 0)
    assert mu == vertex(c4, lam, (1, 3)).point


def test_induce_sum_edge_cases():
    c4 = root_system("C", 4)
    assert induce_sum(c4, []) == ((0,) * 4, (0,) * 4)
    single = LeviWeightPair((3,), (2,), (0,))
    assert induce_sum(c4, [single]) == induce(c4, single)
    with pytest.raises(OverlappingLevisError):
        induce_sum(c4, [single, LeviWeightPair((2, 3), (1, 1), (1, 1))])


def test_rays_are_lifts_of_zero():
    # every ray with nonempty levi is the lift of (fundamental weight, 0)
    for rs in systems(5):
        for i in range(1, rs.rank + 1):
            for ray in rays_for_node(rs, i):
                if not ray.levi:
                    continue
                pos = ray.levi.index(i)
                lam_local = tuple(int(k == pos) for k in range(len(ray.levi)))
                zero = (0,) * len(ray.levi)
                lam, mu = induce(rs, LeviWeightPair(ray.levi, lam_local, zero))
                assert (lam, mu) == (ray.lambda_fw, ray.mu_fw)


# ---------------------------------------------------------------- lifts against Fraction lifts

def _fraction_solve(a, b):
    # Gauss-Jordan over Fractions: the x with a x = b, for a square invertible a
    n = len(b)
    rows = [[Q(v) for v in row] + [Q(y)] for row, y in zip(a, b)]
    for i in range(n):
        p = next(k for k in range(i, n) if rows[k][i])
        rows[i], rows[p] = rows[p], rows[i]
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for k in range(n):
            if k != i and rows[k][i]:
                rows[k] = [v - rows[k][i] * w for v, w in zip(rows[k], rows[i])]
    return tuple(row[n] for row in rows)


def _reference_length(rs, levi, *weights):
    # the package's refusal of a local weight without one coordinate per node of the Levi,
    # checked apart from the package: its message, on tuples
    for w in weights:
        if len(w) != len(levi):
            raise ValueError(f"a weight of the Levi {levi} of {rs} has {len(levi)} "
                             f"coordinates, got {len(w)}")


def _reference_root_coords(rs, levi, w_local):
    # C_L^T c = w on the Levi, solved apart from the package
    levi = node_set(rs, levi)
    _reference_length(rs, levi, w_local)
    return _fraction_solve([[rs.cartan[n - 1][k - 1] for n in levi] for k in levi], w_local)


def _reference_contains(rs, levi, lam_local, mu_local):
    levi = node_set(rs, levi)
    _reference_length(rs, levi, lam_local, mu_local)
    diff = tuple(a - b for a, b in zip(lam_local, mu_local))
    return (is_dominant(lam_local) and is_dominant(mu_local)
            and is_dominant(_reference_root_coords(rs, levi, diff)))


def _reference_lift(rs, inner, outer, lam_local, mu_local):
    # the Fraction lift: lam_local extended by zero, less root_coords_to_fw of c
    inner, outer = node_set(rs, inner), node_set(rs, outer)
    if not set(inner) <= set(outer):
        raise ValueError(f"{inner} is not contained in {outer}")
    _reference_length(rs, inner, lam_local, mu_local)
    c = _reference_root_coords(rs, inner, tuple(a - b for a, b in zip(lam_local, mu_local)))
    if not (is_dominant(lam_local) and is_dominant(mu_local) and is_dominant(c)):
        raise NotInLeviConeError(
            f"({tuple(lam_local)}, {tuple(mu_local)}) is not in the cone of {inner}")
    lam, full = [Q(0)] * rs.rank, [Q(0)] * rs.rank
    for n, v, x in zip(inner, lam_local, c):
        lam[n - 1], full[n - 1] = Q(v), x
    drop = root_coords_to_fw(rs, full)
    return tuple(lam[n - 1] for n in outer), tuple(lam[n - 1] - drop[n - 1] for n in outer)


def _reference_sum(rs, pairs):
    used = set()
    for p in pairs:
        nodes = set(node_set(rs, p.levi))
        if used & nodes:
            raise OverlappingLevisError(f"node sets overlap at {sorted(used & nodes)}")
        used |= nodes
    lam, mu = [Q(0)] * rs.rank, [Q(0)] * rs.rank
    for p in pairs:
        lam_p, mu_p = _reference_lift(rs, p.levi, rs.nodes(), p.lambda_fw, p.mu_fw)
        lam, mu = [a + b for a, b in zip(lam, lam_p)], [a + b for a, b in zip(mu, mu_p)]
    return tuple(lam), tuple(mu)


def _outcome(fn, *args):
    # the value, or the class and message of the refusal
    try:
        return fn(*args)
    except (ValueError, KostkaError) as exc:
        return type(exc), str(exc)


def _all_fractions(value):
    # every entry of a returned tuple, or of a returned pair of tuples, is a Fraction
    if value and isinstance(value[0], tuple):
        return all(map(_all_fractions, value))
    return all(type(x) is Q for x in value)


_RATIONALS = st.integers(0, 3) | st.fractions(0, 3, max_denominator=4)


@st.composite
def _levi_pairs(draw):
    letter, r = draw(st.sampled_from(supported_types(8)))
    rs = root_system(letter, r)
    inner = tuple(n for n in rs.nodes() if draw(st.booleans()))
    outer = tuple(n for n in rs.nodes() if n in inner or draw(st.booleans()))
    lam = tuple(draw(_RATIONALS) for _ in inner)
    if inner and draw(st.integers(0, 7)) == 0:
        lam = (-1, *lam[1:])
    if draw(st.booleans()):  # lam less a combination of the Levi's roots: often in its cone
        c = [draw(st.fractions(0, 1, max_denominator=3)) for _ in inner]
        mu = tuple(x - sum(y * rs.cartan[m - 1][n - 1] for m, y in zip(inner, c))
                   for n, x in zip(inner, lam))
    else:
        mu = tuple(draw(_RATIONALS) for _ in inner)
    return rs, inner, outer, lam, mu


@settings(max_examples=300, deadline=None)
@given(_levi_pairs())
def test_lifts_match_the_fraction_lifts(case):
    rs, inner, outer, lam, mu = case
    pair = LeviWeightPair(inner, lam, mu)
    rest = tuple(n for n in rs.nodes() if n not in outer)
    other = LeviWeightPair(rest, (1,) * len(rest), (0,) * len(rest))
    for got, expect in [
        (_outcome(induce_between, rs, inner, outer, lam, mu),
         _outcome(_reference_lift, rs, inner, outer, lam, mu)),
        (_outcome(induce_between, rs, outer, inner, lam, mu),
         _outcome(_reference_lift, rs, outer, inner, lam, mu)),
        (_outcome(induce, rs, pair), _outcome(_reference_lift, rs, inner, rs.nodes(), lam, mu)),
        (_outcome(induce_sum, rs, [pair, other]), _outcome(_reference_sum, rs, [pair, other])),
        (_outcome(levi_root_coords, rs, inner, tuple(a - b for a, b in zip(lam, mu))),
         _outcome(_reference_root_coords, rs, inner, tuple(a - b for a, b in zip(lam, mu)))),
        (_outcome(levi_cone_contains, rs, inner, lam, mu),
         _outcome(_reference_contains, rs, inner, lam, mu)),
    ]:
        assert got == expect
        if isinstance(got, tuple) and not (got and isinstance(got[0], type)):  # not a refusal
            assert _all_fractions(got)
    direct = _outcome(_reference_lift, rs, inner, rs.nodes(), lam, mu)
    if isinstance(direct[0], type):
        assert _outcome(induction_composes, rs, pair, outer) == direct
    else:
        assert induction_composes(rs, pair, outer)
