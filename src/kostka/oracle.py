"""Independent brute-force verifiers.

Two deliberately different routes to results the rest of the package
computes in closed form: slice-polytope vertices by basic-feasible-solution
enumeration over the defining half-spaces, and weight multiplicities by the
Freudenthal recursion, which validates cone membership on integral points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .cone import cone_contains, slice_inequalities
from .errors import (CapExceededError, InvariantError, NotDominantError,
                     NotInRootLatticeError, RankBoundExceededError)
from .rootdata import (RootSystem, fw_to_root_coords, is_dominant, positive_roots,
                       rho, root_coords_to_fw, symmetrizer)
from .weyl import simple_reflection

DEFAULT_VERTEX_RANK_BOUND = 5
DEFAULT_DIM_CAP = 10**5


def brute_force_vertices(rs: RootSystem, lam, max_rank: int = DEFAULT_VERTEX_RANK_BOUND) -> frozenset:
    """Vertices of the slice polytope by exhausting square subsystems.

    Every vertex is a basic feasible solution: solve each of the C(2r, r)
    rank-sized subsets of the 2r bounding hyperplanes and keep the unique
    solutions satisfying all inequalities.
    """
    if rs.rank > max_rank:
        raise RankBoundExceededError(f"rank {rs.rank} exceeds the bound {max_rank}")
    lam = linalg.vector(lam)
    if not is_dominant(lam):
        raise NotDominantError(f"weight {lam} is not dominant")
    forms = slice_inequalities(rs, lam)
    points = set()
    for chosen in combinations(forms, rs.rank):
        a = linalg.matrix(f[2] for f in chosen)
        b = tuple(-f[1] for f in chosen)
        try:
            x = linalg.solve_unique(a, b)
        except (linalg.NoSolutionError, linalg.MultipleSolutionsError):
            continue
        if all(const + sum(c * v for c, v in zip(coeffs, x)) >= 0
               for _, const, coeffs in forms):
            points.add(x)
    return frozenset(points)


def _integral(w) -> tuple[int, ...]:
    vals = [Fraction(x) for x in w]
    if any(v.denominator != 1 for v in vals):
        raise NotInRootLatticeError(f"weight {tuple(vals)} is not integral")
    return tuple(int(v) for v in vals)


def _pairing(d, w_fw, c_root) -> Fraction:
    # invariant form of a weight (fw coords) against a root combination (root coords)
    return sum(dj * wj * cj for dj, wj, cj in zip(d, w_fw, c_root))


def weyl_dim(rs: RootSystem, lam) -> int:
    """Dimension of the irreducible representation with the given highest weight."""
    lam = linalg.vector(lam)
    if not is_dominant(lam):
        raise NotDominantError(f"weight {lam} is not dominant")
    d = symmetrizer(rs)
    r = rho(rs)
    shifted = tuple(x + y for x, y in zip(lam, r))
    num = Fraction(1)
    den = Fraction(1)
    for alpha in positive_roots(rs):
        num *= _pairing(d, shifted, alpha)
        den *= _pairing(d, r, alpha)
    out = num / den
    if out.denominator != 1:
        raise InvariantError(f"Weyl dimension formula gave {out} for {lam}")
    return int(out)


class FreudenthalTable:
    """Weight multiplicities of one irreducible highest-weight representation.

    Memoises over dominant representatives.  One table per highest weight;
    a table must not be shared while a computation is in flight.
    """

    def __init__(self, rs: RootSystem, lam, cap: int = DEFAULT_DIM_CAP):
        self.rs = rs
        self.lam = _integral(lam)
        if not is_dominant(self.lam):
            raise NotDominantError(f"highest weight {self.lam} must be dominant")
        self.dim = weyl_dim(rs, self.lam)
        if self.dim > cap:
            raise CapExceededError(f"dim {self.dim} exceeds the cap {cap}")
        self._d = symmetrizer(rs)
        self._rho = rho(rs)
        # positive roots both as root coefficients and in fw coordinates
        self._roots = [(alpha, root_coords_to_fw(rs, alpha)) for alpha in positive_roots(rs)]
        self._memo: dict[tuple, int] = {self.lam: 1}
        self._norms: dict[tuple, Fraction] = {}
        self._norm_lam = self._norm2(self.lam)
        self._norm_lam_rho = self._norm2(self._shift(self.lam))

    def _shift(self, w):
        return tuple(x + y for x, y in zip(w, self._rho))

    def _norm2(self, w) -> Fraction:
        cached = self._norms.get(w)
        if cached is None:
            cached = _pairing(self._d, w, fw_to_root_coords(self.rs, w))
            self._norms[w] = cached
        return cached

    def _dominant_rep(self, w) -> tuple:
        while True:
            for i, v in enumerate(w):
                if v < 0:
                    w = simple_reflection(self.rs, i + 1, w)
                    break
            else:
                return tuple(w)

    def multiplicity(self, mu) -> int:
        """Dimension of the weight space at mu (zero off the root-lattice coset)."""
        mu = _integral(mu)
        diff = tuple(a - b for a, b in zip(self.lam, mu))
        if any(c.denominator != 1 for c in fw_to_root_coords(self.rs, diff)):
            return 0
        return self._mult(mu)

    def _mult(self, w) -> int:
        return self._dominant_mult(self._dominant_rep(w))

    def _dominant_mult(self, nu: tuple) -> int:
        cached = self._memo.get(nu)
        if cached is not None:
            return cached
        if self._norm2(self._shift(nu)) >= self._norm_lam_rho:
            self._memo[nu] = 0
            return 0
        total = Fraction(0)
        for alpha, alpha_fw in self._roots:
            prev = self._norm2(nu)
            k = 1
            while True:
                xi = tuple(x + k * y for x, y in zip(nu, alpha_fw))
                n2 = self._norm2(xi)
                # weights of the representation all satisfy (xi, xi) <= (lam, lam);
                # the norm along the string is convex in k, so once it exceeds the
                # bound while non-decreasing it stays out
                if n2 > self._norm_lam and n2 >= prev:
                    break
                m = self._mult(xi)
                if m:
                    total += m * _pairing(self._d, xi, alpha)
                prev = n2
                k += 1
        denom = self._norm_lam_rho - self._norm2(self._shift(nu))
        value = 2 * total / denom
        if value.denominator != 1 or value < 0:
            raise InvariantError(f"Freudenthal recursion gave multiplicity {value} at {nu}")
        out = int(value)
        self._memo[nu] = out
        return out


def weight_multiplicity(rs: RootSystem, lam, mu, cap: int = DEFAULT_DIM_CAP) -> int:
    """One-shot Freudenthal multiplicity; use the table for repeated queries."""
    return FreudenthalTable(rs, lam, cap).multiplicity(mu)


@dataclass(frozen=True)
class MembershipComparison:
    """Cone membership versus weight multiplicity for one integral pair."""

    member: bool
    in_root_lattice: bool
    multiplicity: int

    @property
    def agrees(self) -> bool:
        return (self.member and self.in_root_lattice) == (self.multiplicity > 0)


def compare_membership_multiplicity(rs: RootSystem, lam, mu,
                                    cap: int = DEFAULT_DIM_CAP) -> MembershipComparison:
    """Cross-check the inequality test against an actual multiplicity.

    Membership of a dominant integral pair in the cone plus integrality of
    the root coefficients of lam - mu must coincide with the weight space
    being nonzero.
    """
    lam = _integral(lam)
    mu = _integral(mu)
    member = cone_contains(rs, lam, mu)
    diff = tuple(a - b for a, b in zip(lam, mu))
    lattice = all(c.denominator == 1 for c in fw_to_root_coords(rs, diff))
    mult = FreudenthalTable(rs, lam, cap).multiplicity(mu)
    return MembershipComparison(member, lattice, mult)
