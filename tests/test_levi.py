import random
from fractions import Fraction as Q

import pytest

from conftest import systems
from kostka import linalg
from kostka import (LeviWeightPair, cone_contains, components, extend_by_zero,
                    induce, induce_sum, induce_vertex, induction_composes,
                    levi_cone_contains, levi_root_coords, rays_for_node,
                    restrict, root_system, vertex)
from kostka.errors import (NotDominantError, NotInLeviConeError,
                           OverlappingLevisError)


def test_extend_by_zero_examples():
    c4 = root_system("C", 4)
    assert extend_by_zero(c4, (3,), (2,)) == (0, 0, 2, 0)
    assert extend_by_zero(c4, (2, 3), (0, 3)) == (0, 0, 3, 0)
    assert extend_by_zero(c4, (1, 2), (0, 0)) == (0, 0, 0, 0)
    with pytest.raises(NotDominantError):
        extend_by_zero(c4, (3,), (-1,))
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
    solves = []
    solve_unique = linalg.solve_unique

    def counted(*args, **kwargs):
        solves.append(args)
        return solve_unique(*args, **kwargs)

    monkeypatch.setattr(linalg, "solve_unique", counted)
    c5 = root_system("C", 5)
    lam, mu = induce(c5, LeviWeightPair((1, 2, 4), (2, 1, 1), (0, 1, 0)))
    assert len(solves) == 1
    assert (lam, mu) == ((2, 1, 0, 1, 0), (0, 1, Q(7, 6), 0, Q(1, 2)))
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
