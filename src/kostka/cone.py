"""The dominance cone of weight pairs and its faces.

The cone lives in pairs (lam, mu) of fundamental-weight coordinate vectors
and is cut out by 3r linear inequalities: dominance of lam, dominance of
mu, and nonnegativity of every simple-root coefficient of lam - mu.  Its
slice at a fixed dominant lam is a polytope whose vertices are computed
here by an exact linear solve over a Levi subsystem; the extremal rays of
the cone itself are enumerated per fundamental weight from the connected
Dynkin subdiagrams through that node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from . import linalg
from .errors import (CapExceededError, InvariantError, MultipleSolutionsError, NoSolutionError,
                     NotDominantError, NotInConeError)
from .rootdata import (RootSystem, connected_subsets_containing, fundamental_weight,
                       fw_to_root_coords, is_dominant, node_set, root_coords_to_fw,
                       sub_cartan, validate_type)
from .weyl import DEFAULT_BUDGET, OrbitBudget, orbit


@dataclass(frozen=True)
class LinearForm:
    """One defining inequality, as a linear functional on (lam | mu)."""

    label: str
    coeffs: tuple


@lru_cache(maxsize=None)
def cone_inequalities(rs: RootSystem) -> tuple[LinearForm, ...]:
    """The 3r defining inequalities of the cone, in a fixed order."""
    r = rs.rank
    zero = (Fraction(0),) * r
    forms = []
    for i in range(r):
        e = tuple(Fraction(int(j == i)) for j in range(r))
        forms.append(LinearForm(f"dom-lambda({i + 1})", e + zero))
    for i in range(r):
        e = tuple(Fraction(int(j == i)) for j in range(r))
        forms.append(LinearForm(f"dom-mu({i + 1})", zero + e))
    for j in range(r):
        row = rs.inverse_transpose_cartan[j]
        forms.append(LinearForm(f"rootcoef({j + 1})", row + tuple(-x for x in row)))
    return tuple(forms)


@lru_cache(maxsize=None)
def _integer_cone_forms(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    # the cone_inequalities forms, each cleared of denominators (same rank on any subset)
    return tuple(map(tuple, linalg._integer_rows(f.coeffs for f in cone_inequalities(rs))[0]))


def slice_inequalities(rs: RootSystem, lam) -> tuple[tuple[str, Fraction, tuple], ...]:
    """The 2r inequalities of the slice polytope at lam, as (label, const, coeffs).

    A point mu belongs to the slice iff const + coeffs . mu >= 0 for all of
    them.
    """
    lam = linalg.vector(lam)
    r = rs.rank
    forms = []
    for i in range(r):
        e = tuple(Fraction(int(j == i)) for j in range(r))
        forms.append((f"dom-mu({i + 1})", Fraction(0), e))
    root_lam = fw_to_root_coords(rs, lam)
    for j in range(r):
        row = rs.inverse_transpose_cartan[j]
        forms.append((f"rootcoef({j + 1})", root_lam[j], tuple(-x for x in row)))
    return tuple(forms)


def cone_contains(rs: RootSystem, lam, mu) -> bool:
    """Membership test: both weights dominant, lam - mu nonnegative on simple roots."""
    lam = linalg.vector(lam)
    mu = linalg.vector(mu)
    if not (is_dominant(lam) and is_dominant(mu)):
        return False
    diff = tuple(a - b for a, b in zip(lam, mu))
    return all(c >= 0 for c in fw_to_root_coords(rs, diff))


@dataclass(frozen=True)
class Vertex:
    """A vertex of a slice polytope with its minimal defining node set.

    ``c_alpha`` holds the simple-root coefficients of lam - point, supported
    exactly on ``levi``.
    """

    point: linalg.Vec
    levi: tuple[int, ...]
    c_alpha: linalg.Vec


# the most node sets, hence vertices, polytope_vertices enumerates for one weight
VERTEX_CAP = 1 << 16


def _levi_coefficients(rs: RootSystem, nodes, rhs) -> list[Fraction]:
    # simple-root coefficients, zero off `nodes`, of the combination whose
    # pairings with the coroots of `nodes` are rhs
    a = linalg.solve_unique(tuple(zip(*sub_cartan(rs, nodes))), rhs)
    full = [Fraction(0)] * rs.rank
    for n, coeff in zip(nodes, a):
        full[n - 1] = coeff
    return full


def _require_dominant(lam: linalg.Vec) -> None:
    if not is_dominant(lam):
        raise NotDominantError(f"weight {lam} is not dominant")


def vertex(rs: RootSystem, lam, nodes) -> Vertex:
    """The slice-polytope vertex obtained by zeroing the pairings on `nodes`.

    Solves <x, alpha_i_vee> = 0 for i in `nodes` together with agreement of
    the remaining simple-root coefficients with lam; the unique solution is
    lam minus a combination of the simple roots indexed by `nodes`.  The
    returned node set is minimal: nodes whose coefficient vanishes are
    dropped.
    """
    lam = linalg.vector(lam)
    _require_dominant(lam)
    nodes = node_set(rs, nodes)
    if not nodes:
        return Vertex(lam, (), (Fraction(0),) * rs.rank)
    full = _levi_coefficients(rs, nodes, tuple(lam[n - 1] for n in nodes))
    point = tuple(x - y for x, y in zip(lam, root_coords_to_fw(rs, full)))
    return Vertex(point, tuple(n for n in nodes if full[n - 1]), tuple(full))


def polytope_vertices(rs: RootSystem, lam) -> tuple[Vertex, ...]:
    """All vertices of the slice polytope at a dominant weight.

    Inverse Cartan matrices of connected types are entrywise positive, so the
    vertices correspond one to one to the node sets S each of whose
    connected components meets the support of lam, and S is the minimal
    defining node set of its vertex.  Each connected piece meeting the
    support is solved once by `vertex`; the vertex of S is lam minus the sum
    of the drops lam - point of its components, and its c_alpha is the sum
    of theirs.  Raises CapExceededError, before any solve, when there are
    more than VERTEX_CAP such node sets.  Ordered by node set (size, then
    lexicographic).
    """
    lam = linalg.vector(lam)
    _require_dominant(lam)
    found: set[tuple[int, ...]] = set()
    for i in rs.nodes():
        if lam[i - 1]:
            found.update(connected_subsets_containing(rs, i))
    pieces = sorted(found, key=lambda p: (len(p), p))
    bits = [sum(1 << n for n in p) for p in pieces]
    # later[j]: the pieces after j that miss piece j and its neighbours, as a bit mask
    later = []
    for j, p in enumerate(pieces):
        near = bits[j]
        for n in p:
            for m in rs.neighbors(n):
                near |= 1 << m
        later.append(sum(1 << k for k in range(j + 1, len(pieces)) if not bits[k] & near))
    # each node set as (index of the set it extends, piece added); the empty set first
    sets = [(0, -1)]
    stack = [(0, (1 << len(pieces)) - 1)]  # (set index, pieces it may be extended by)
    while stack:
        k, free = stack.pop()
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            if len(sets) == VERTEX_CAP:
                raise CapExceededError(f"the slice polytope of {rs} at this weight has "
                                       f"more than {VERTEX_CAP} vertices")
            stack.append((len(sets), free & later[j]))
            sets.append((k, j))
    solved = []
    for p in pieces:
        v = vertex(rs, lam, p)
        if v.levi != p:
            raise InvariantError(f"vertex of {rs} at {lam} on {p} has minimal node set {v.levi}")
        # off the piece, the drop lam - point is supported on the piece's neighbours
        solved.append((v, [(m, x - y) for m, (x, y) in enumerate(zip(lam, v.point))
                           if x != y and m + 1 not in p]))
    out = [Vertex(lam, (), (Fraction(0),) * rs.rank)]
    for k, j in sets[1:]:
        base = out[k]
        v, drop = solved[j]
        point = list(base.point)
        c_alpha = list(base.c_alpha)
        # the set's other pieces are not adjacent to this one, so on its nodes
        # the point and c_alpha are this piece's alone
        for n in v.levi:
            point[n - 1] = v.point[n - 1]
            c_alpha[n - 1] = v.c_alpha[n - 1]
        for m, d in drop:
            point[m] -= d
        out.append(Vertex(tuple(point), tuple(sorted(base.levi + v.levi)), tuple(c_alpha)))
    return tuple(sorted(out, key=lambda v: (len(v.levi), v.levi)))


@dataclass(frozen=True)
class RayRecord:
    """One extremal ray of the cone.

    ``(lambda_fw, mu_fw)`` is the rational generator with lambda a
    fundamental weight; ``c_alpha`` holds the simple-root coefficients of
    lambda - mu (supported exactly on ``levi``).  ``k_primitive`` is the
    least positive scaling making the pair integral with integral root
    coefficients; ``k_det`` is the determinant of the Levi Cartan
    submatrix, which also scales onto the lattice but need not be least.
    """

    node: int
    levi: tuple[int, ...]
    lambda_fw: linalg.Vec
    mu_fw: linalg.Vec
    c_alpha: linalg.Vec
    k_primitive: int
    k_det: int


def rays_for_node(rs: RootSystem, i: int) -> tuple[RayRecord, ...]:
    """All extremal rays whose first coordinate is the i-th fundamental weight.

    One ray for the empty node set (the pair (w_i, w_i)) and one for every
    connected subdiagram containing node i, whose root coefficients are the
    i-column of the inverse transpose of the Levi Cartan submatrix.  Each
    Levi takes one integer elimination (``linalg.solve_unique`` with
    ``integer=True``): ``k_det`` is its last pivot, the Levi Cartan
    determinant, which is also the common denominator of the coefficients
    it returns.
    """
    fw = fundamental_weight(rs, i)
    lam = linalg.vector(fw)
    zero = Fraction(0)
    records = [RayRecord(i, (), lam, lam, (zero,) * rs.rank, 1, 1)]
    for nodes in connected_subsets_containing(rs, i):
        try:
            nums, d = linalg.solve_unique(tuple(zip(*sub_cartan(rs, nodes))),
                                          [int(n == i) for n in nodes], integer=True)
        except (NoSolutionError, MultipleSolutionsError) as exc:
            raise InvariantError(f"Levi {nodes} of {rs} has a singular Cartan matrix") from exc
        if d <= 0:
            raise InvariantError(f"Levi {nodes} of {rs} has Cartan determinant {d}")
        coeffs = [0] * rs.rank
        for n, x in zip(nodes, nums):
            coeffs[n - 1] = x
        # coeffs / d is the drop from w_i to mu; its pairings equal those of w_i on
        # `nodes` by construction, so mu is nonzero only on their neighbours
        paired = root_coords_to_fw(rs, coeffs)
        mu = tuple(Fraction(d * w - p, d) if d * w != p else zero for w, p in zip(fw, paired))
        c_alpha = tuple(Fraction(x, d) if x else zero for x in coeffs)
        records.append(RayRecord(i, nodes, lam, mu, c_alpha, d // gcd(d, *nums), d))
    return tuple(records)


def all_rays(rs: RootSystem) -> tuple[RayRecord, ...]:
    """Every extremal ray of the cone, grouped by node in ascending order."""
    out: list[RayRecord] = []
    for i in range(1, rs.rank + 1):
        out.extend(rays_for_node(rs, i))
    return tuple(out)


def is_extremal_ray(rs: RootSystem, lam, mu) -> bool:
    """Tight-constraint test: the pair spans an extremal ray iff the
    inequalities vanishing at it cut out a one-dimensional subspace."""
    lam = linalg.vector(lam)
    mu = linalg.vector(mu)
    # the values of the cone_inequalities forms at (lam | mu), in their order
    values = lam + mu + fw_to_root_coords(rs, tuple(a - b for a, b in zip(lam, mu)))
    if any(v < 0 for v in values):
        raise NotInConeError(f"({lam}, {mu}) is not in the cone")
    tight = [row for row, v in zip(_integer_cone_forms(rs), values) if not v]
    return 2 * rs.rank - len(linalg._eliminate(tight)[0]) == 1


def ray_count_formula(letter: str, rank: int) -> int:
    """Closed-form number of extremal rays for the given type and rank.

    Only the underlying graph of the Dynkin diagram matters, so A, B and C
    share one polynomial (as do G2 with A2 and F4 with A4); D and E have
    their own.
    """
    letter = validate_type(letter, rank)
    if letter == "D":
        return comb(rank, 3) + 3 * comb(rank, 2) + 2 * rank - 3
    if letter == "E":
        return comb(rank, 3) + 4 * comb(rank, 2) + rank - 8
    return comb(rank + 1, 3) + comb(rank + 1, 2) + rank  # path graphs: A, B, C, F4, G2


def fundamental_orbit_pairs(rs: RootSystem,
                            budget: OrbitBudget = DEFAULT_BUDGET) -> tuple[tuple[linalg.Vec, linalg.Vec], ...]:
    """All pairs (w_i, x) with x in the full Weyl orbit of w_i.

    These generate the extremal rays of the relaxed cone in which the
    second weight is not required to be dominant.
    """
    out = []
    for i in range(1, rs.rank + 1):
        fw = linalg.vector(fundamental_weight(rs, i))
        for x in sorted(orbit(rs, fw, rs.nodes(), budget)):
            out.append((fw, linalg.vector(x)))
    return tuple(out)
