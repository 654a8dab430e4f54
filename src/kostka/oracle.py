"""Independent brute-force verifiers.

Two deliberately different routes to results the rest of the package
computes in closed form: the extreme rays of the cone and the vertices of
its slices by the double description method over the defining half-spaces
alone (no Levi structure, no linear solve), and weight multiplicities by
the Freudenthal recursion, which validates cone membership on integral points.
The recursion is Moody and Patera's: one root string per orbit of the
stabiliser of a dominant weight, with the norms along a string in closed form.

Both run in integers.  A table of the positive roots (each root's fw coordinates
and the index of +-s_j beta for every node j, as the walk that finds them keeps
them, ``rootdata._root_walk``; its pairing vector under the invariant form
(w, alpha_j) = d_j w_j, d the integer symmetrizer; its norm); the stabiliser orbits
of the positive roots per zero node set, walked on that table's indices; and the
Freudenthal table of each highest weight (up to a bound, the oldest dropped first)
are built on first use and kept on the root system, as all derived from one is.  A
table walks to a dominant weight by ``rootdata._dominant`` and carries only the gap.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, prod
from operator import add, mul, sub

from . import linalg
from .cone import _require_dominant, cone_inequalities
from .errors import CapExceededError, InvariantError, NotInRootLatticeError, RankBoundExceededError
from .rootdata import (RootSystem, _dominant, _levi_solve, _per_system, _positive_root_count,
                       _root_walk, _weight, is_dominant, symmetrizer)

# the bounds, read on each call: the highest rank brute_force_vertices takes, the
# largest representation a FreudenthalTable is built or read for, and the most
# positive roots of a system whose roots the multiplicity oracle enumerates
DEFAULT_VERTEX_RANK_BOUND = 5
DEFAULT_DIM_CAP = 10**5
DEFAULT_ROOT_CAP = 10**4


def _require_root_cap(rs: RootSystem) -> None:
    # refused in O(1), before a positive root is enumerated: |Phi^+| is in closed form
    n = _positive_root_count(rs.letter, rs.rank)
    if n > DEFAULT_ROOT_CAP:
        raise CapExceededError(f"{rs} has {n} positive roots, over the cap {DEFAULT_ROOT_CAP}")


def _extreme_rays(rows, dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of the cone {x >= 0 : row . x >= 0 for every row}, primitive.

    Double description (Motzkin, Raiffa, Thompson and Thrall, 1953; Fukuda
    and Prodon, 1996) over int: start from the orthant and its unit rays,
    keep each ray's tight constraints as a bit mask (bit j for x_j >= 0,
    bit dim + k for row k), and add one row at a time.  Rays on the row's
    nonnegative side stay; a new ray comes from each pair of a positive and
    a negative ray that are adjacent, which holds iff no other ray is tight
    on every constraint tight on both (the combinatorial test).
    """
    rays = [(tuple(int(i == j) for j in range(dim)), ((1 << dim) - 1) ^ (1 << i))
            for i in range(dim)]
    for k, row in enumerate(rows):
        bit = 1 << (dim + k)
        vals = [sum(map(mul, row, ray)) for ray, _ in rays]
        plus = [(ray, mask, s) for (ray, mask), s in zip(rays, vals) if s > 0]
        minus = [(ray, mask, s) for (ray, mask), s in zip(rays, vals) if s < 0]
        out = [(ray, mask | bit if not s else mask) for (ray, mask), s in zip(rays, vals) if s >= 0]
        masks = [mask for _, mask in rays]
        for p, mp, sp in plus:
            for n, mn, sn in minus:
                z = mp & mn
                # the pair's face has dimension 2: at least dim - 2 tight constraints, and
                # no third ray tight on all of them (distinct rays have distinct masks)
                if z.bit_count() < dim - 2 or any(m & z == z for m in masks if m != mp and m != mn):
                    continue
                x = [sp * b - sn * a for a, b in zip(p, n)]
                g = gcd(*x)
                out.append((tuple(v // g for v in x), z | bit))
        rays = out
    return [ray for ray, _ in rays]


def brute_force_vertices(rs: RootSystem, lam) -> frozenset:
    """Vertices of the slice polytope by double description.

    The slice is the set of c >= 0 with mu = lam - C^T c >= 0, the cone's
    integer forms on (lam | c) (``cone_inequalities``) at lam fixed.  With m the lcm
    of lam's denominators it is homogenised to the cone of (y, t) >= 0 with
    m lam t - C^T y >= 0, whose extreme ray (y, t) is the vertex's c = y / (m t).
    y >= 0 and t >= 0 are the orthant, so only the r dom-mu rows are added
    (`_extreme_rays`), those with lam_i = 0 first, as that pairs fewer rays; the
    vertex mu = lam - C^T c is their values at (y, t) over m t: mapped back
    through the dense Cartan matrix, not a solve.
    Raises InvariantError if a ray has t <= 0, that is if the slice is unbounded.
    """
    if rs.rank > DEFAULT_VERTEX_RANK_BOUND:
        raise RankBoundExceededError(
            f"rank {rs.rank} exceeds the bound {DEFAULT_VERTEX_RANK_BOUND}")
    lam = _weight(rs, lam)
    _require_dominant(lam)
    # a dom-mu form (e_i | g) is lam_i + g . c >= 0: the row (g | m lam_i) on (y, t)
    r, (x, m) = rs.rank, linalg._cleared(lam)
    rows = [[*f.coeffs[r:], v] for f, v in zip(cone_inequalities(rs)[r:2 * r], x)]
    points = set()
    for ray in _extreme_rays(sorted(rows, key=lambda row: row[-1] != 0), r + 1):
        t = ray[-1]
        if t <= 0:
            raise InvariantError(f"the slice of {rs} at {lam} is unbounded along {ray[:-1]}")
        mt = m * t
        points.add(tuple([Fraction(sum(map(mul, row, ray)), mt) for row in rows]))
    return frozenset(points)


def brute_force_rays(rs: RootSystem) -> frozenset:
    """Extreme rays of the cone as primitive integer (lam | mu) vectors, by double
    description on (lam | c): the dom-lambda and rootcoef forms are the orthant, and
    only the r dom-mu forms are added (`_extreme_rays`).  Each ray (l | c) is the pair
    (l | l - C^T c), the dom-mu forms' values at it, made primitive."""
    r = rs.rank
    forms = [f.coeffs for f in cone_inequalities(rs)[r:2 * r]]
    out = set()
    for ray in _extreme_rays(forms, 2 * r):
        pair = ray[:r] + tuple([sum(map(mul, f, ray)) for f in forms])
        g = gcd(*pair)
        out.add(tuple(v // g for v in pair))
    return frozenset(out)


def _integral(w: tuple) -> tuple[int, ...]:
    # a weight as _weight read it, refused unless integral: ints, each Fraction its numerator
    if set(map(type, w)) <= {int}:
        return w
    if any(x.denominator != 1 for x in w):
        raise NotInRootLatticeError(f"weight {','.join(map(str, w))} is not integral")
    return tuple(x.numerator for x in w)


@_per_system
def _root_table(rs: RootSystem):
    """(d, roots, paired, norms, reflected, den): the integer symmetrizer d, for which
    (w, alpha_j) = d_j w_j is the invariant form; the positive roots beta as (root coords,
    fw coords) and, per root and 0-based node j, the index of +-s_j beta, both read from
    ``_root_walk`` in the order it found the roots; over them (d_j beta_j)_j, whose dot
    product with a weight w in fw coords is (w, beta), and (beta, beta); and
    prod (rho, beta), the denominator of Weyl's dimension formula."""
    d = tuple(linalg._cleared(symmetrizer(rs))[0])  # the form is unique up to a positive multiple
    roots, reflected = _root_walk(rs)
    paired = tuple(tuple(map(mul, d, a)) for a, _ in roots)
    norms = tuple(sum(map(mul, a_fw, p)) for (_, a_fw), p in zip(roots, paired))
    den = prod(map(sum, paired))  # (rho, beta) = sum(p): rho is all ones
    return d, roots, paired, norms, reflected, den


@_per_system
def _root_orbits(rs: RootSystem, nodes: tuple[int, ...]):
    """The positive roots up to sign in orbits of W_J, J the 0-based nodes given:
    (root coords, fw coords, orbit size, (alpha, alpha), (d_j alpha_j)_j) of the least
    root of each orbit, in the order of those roots, the size counting the orbit's
    positive roots.  Breadth first on the indices of ``_root_table`` under
    beta -> +-s_j beta."""
    _, roots, paired, norms, reflected, _ = _root_table(rs)
    seen, out = [False] * len(roots), []
    for b in range(len(roots)):
        if not seen[b]:
            seen[b], orbit = True, [b]
            for c in orbit:  # grows while it is read
                for g in (reflected[c][j] for j in nodes):
                    if not seen[g]:
                        seen[g] = True
                        orbit.append(g)
            a = min(orbit, key=roots.__getitem__)
            out.append((*roots[a], len(orbit), norms[a], paired[a]))
    return tuple(sorted(out))


def _root_coefficients(rs: RootSystem, lam, mu) -> tuple[list[int], bool]:
    # the simple-root coefficients of the integral lam - mu from one forest solve, as ints if
    # it is in the root lattice (d divides every numerator), else their numerators; and whether
    c, d, _ = _levi_solve(rs, [a - b for a, b in zip(lam, mu)], rs.nodes())
    if any(n % d for n in c):
        return c, False
    return [n // d for n in c], True


def weyl_dim(rs: RootSystem, lam) -> int:
    """Dimension of the irreducible representation with the given highest weight."""
    lam = _weight(rs, lam)
    _require_dominant(lam)
    lam = _integral(lam)
    _require_root_cap(rs)
    _, _, paired, _, _, den = _root_table(rs)
    shifted = tuple(x + 1 for x in lam)  # lam + rho: integer pairings
    num = prod(sum(map(mul, shifted, p)) for p in paired)
    out, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"Weyl dimension formula gave {Fraction(num, den)} for {lam}")
    return out


class FreudenthalTable:
    """Weight multiplicities of one irreducible highest-weight representation.

    Freudenthal's formula (Humphreys, §22.3) as Moody and Patera's recursion
    (Bull. AMS 7, 1982): at a dominant nu with stabiliser W_J the string sum
    f(alpha) = sum_k m(nu + k alpha) (nu + k alpha, alpha) is W_J-invariant and
    f(-alpha) = f(alpha) on Phi_J, so one string per orbit of `_root_orbits`
    counts for the whole orbit, its norms and pairings closed forms in k.

    At nu the recursion divides by gap + 2 (lam - nu, rho), gap = (lam, lam) - (nu, nu).
    Only the W-invariant gap is carried, read from the one solve for lam - mu's simple-root
    coefficients c as sum_j c_j d_j (lam + mu)_j (``_root_table``'s d) and moved along root
    strings; 2 (lam - nu, rho) = R . (lam - nu), R_j = sum_beta d_j beta_j, is read at nu.

    Memoises over dominant representatives.  ``_table`` keeps one per highest
    weight on its root system, shared by the requests of one thread; its memo
    only ever gains finished entries.
    """

    def __init__(self, rs: RootSystem, lam):
        self.rs = rs
        self.lam = _integral(_weight(rs, lam))
        self.dim = weyl_dim(rs, self.lam)  # refuses a non-dominant lam, then the root cap
        if self.dim > DEFAULT_DIM_CAP:
            raise CapExceededError(f"dim {self.dim} exceeds the cap {DEFAULT_DIM_CAP}")
        self._d, _, paired, *_ = _root_table(rs)
        self._rho2 = tuple(map(sum, zip(*paired)))  # R, the column sums: R . w = (w, 2 rho)
        self._memo: dict[tuple, int] = {self.lam: 1}

    def multiplicity(self, mu) -> int:
        """Dimension of the weight space at mu (zero off the root-lattice coset)."""
        mu = _integral(_weight(self.rs, mu))
        c, lattice = _root_coefficients(self.rs, self.lam, mu)
        return self._mult(mu, c) if lattice else 0

    def _mult(self, w, c: list[int]) -> int:
        # m(w) from c, lam - w's simple-root coefficients, read only if w's dominant
        # representative nu is new
        nu = tuple(_dominant(self.rs, list(w), self.rs.nodes()))
        if nu in self._memo:
            return self._memo[nu]
        return self._dominant_mult(nu, sum(map(mul, map(mul, c, self._d), map(add, self.lam, w))))

    def _dominant_mult(self, nu: tuple, gap: int) -> int:
        memo = self._memo
        cached = memo.get(nu)
        if cached is not None:
            return cached
        den = gap + sum(map(mul, self._rho2, map(sub, self.lam, nu)))  # (lam+rho)^2 - (nu+rho)^2
        if den <= 0:
            memo[nu] = 0
            return 0
        zeros = tuple(i for i, x in enumerate(nu) if not x)  # J: W_J fixes nu
        nodes = self.rs.nodes()
        total = 0
        for _, alpha_fw, size, aa, paired in _root_orbits(self.rs, zeros):
            na = sum(map(mul, nu, paired))
            string, k, xi = 0, 1, nu
            while True:
                # xi = nu + k alpha: (xi, alpha) = (nu, alpha) + k (alpha, alpha), and (xi, xi)
                # rises over (nu, nu) by k (2 (nu, alpha) + k (alpha, alpha)), increasing in k
                # as (nu, alpha) >= 0 (nu dominant, alpha positive).  The representation's
                # weights all have (xi, xi) <= (lam, lam), a rise of at most gap: once the rise
                # exceeds gap it stays out
                rise = k * (2 * na + k * aa)
                if rise > gap:
                    break
                xi = tuple(map(add, xi, alpha_fw))
                m = memo.get(xi)  # a dominant xi may be known: no reflection then
                if m is None:
                    m = self._dominant_mult(tuple(_dominant(self.rs, list(xi), nodes)), gap - rise)
                if m:
                    string += m * (na + k * aa)
                k += 1
            total += size * string
        out, rem = divmod(2 * total, den)
        if rem or out < 0:
            raise InvariantError(f"Freudenthal recursion gave multiplicity "
                                 f"{Fraction(2 * total, den)} at {nu}")
        self._memo[nu] = out
        return out


_TABLES_PER_SYSTEM = 256  # the most tables kept on one root system, the oldest dropped first


def _table(rs: RootSystem, lam: tuple[int, ...]) -> FreudenthalTable:
    # the table of lam, read and integral, kept in rs._memo beside what _per_system keeps; a
    # failed build keeps nothing
    _require_root_cap(rs)  # also for a table built before the cap was lowered
    tables = rs._memo.setdefault(FreudenthalTable, {})
    table = tables.get(lam)
    if table is None:
        table = FreudenthalTable(rs, lam)
        if len(tables) >= _TABLES_PER_SYSTEM:
            del tables[next(iter(tables))]
        tables[lam] = table
    elif table.dim > DEFAULT_DIM_CAP:  # built before the cap was lowered
        raise CapExceededError(f"dim {table.dim} exceeds the cap {DEFAULT_DIM_CAP}")
    return table


def weight_multiplicity(rs: RootSystem, lam, mu) -> int:
    """Freudenthal multiplicity from the table of lam kept on rs, built on first use."""
    return _table(rs, _integral(_weight(rs, lam))).multiplicity(mu)


class MembershipComparison(namedtuple("MembershipComparison",
                                       "member in_root_lattice multiplicity")):
    """Cone membership versus weight multiplicity for one integral pair."""

    __slots__ = ()

    @property
    def agrees(self) -> bool:
        return (self.member and self.in_root_lattice) == (self.multiplicity > 0)


def compare_membership_multiplicity(rs: RootSystem, lam, mu) -> MembershipComparison:
    """Cross-check the inequality test against an actual multiplicity.

    Membership of a dominant integral pair in the cone plus integrality of
    the root coefficients of lam - mu must coincide with the weight space
    being nonzero.  Both are read from one solve for those coefficients,
    and the table's multiplicity only on the root lattice: it is 0 off it.
    """
    lam, mu = _weight(rs, lam), _weight(rs, mu)
    lam, mu = _integral(lam), _integral(mu)
    table = _table(rs, lam)  # refused in this order: length, integrality, the cap, dominance
    c, lattice = _root_coefficients(rs, lam, mu)
    return MembershipComparison(is_dominant(mu) and is_dominant(c), lattice,
                                table._mult(mu, c) if lattice else 0)
