"""Reference arithmetic for checking kostka's outputs.

Written apart from the package on purpose: the checks must not reuse the
code path they check.  Cartan matrices follow the Bourbaki numbering with
``cartan[i][j] = <alpha_i, alpha_j^vee>``, so row i is the i-th simple root
in fundamental-weight coordinates.  Everything is exact (``Fraction``/int).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod

# (letter, rank) pairs the benchmark may draw, lowest and highest rank per type
RANKS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (4, None),
         "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def type_ranks(lo: int, hi: int, letters: str = "ABCDEFG") -> list[tuple[str, int]]:
    """Every supported (letter, rank) with lo <= rank <= hi."""
    out = []
    for letter in letters:
        a, b = RANKS[letter]
        top = hi if b is None else min(b, hi)
        out += [(letter, r) for r in range(max(a, lo), top + 1)]
    return out


@lru_cache(maxsize=None)
def cartan(letter: str, r: int) -> tuple[tuple[int, ...], ...]:
    # bonds (i, j, <alpha_i, alpha_j^vee>, <alpha_j, alpha_i^vee>), 1-based
    if letter == "D":
        bonds = [(i, i + 1, -1, -1) for i in range(1, r - 1)] + [(r - 2, r, -1, -1)]
    elif letter == "E":
        bonds = [(1, 3, -1, -1), (2, 4, -1, -1)] + [(i, i + 1, -1, -1) for i in range(3, r)]
    elif letter == "F":
        bonds = [(1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)]
    elif letter == "G":
        bonds = [(1, 2, -1, -3)]
    else:
        bonds = [(i, i + 1, -1, -1) for i in range(1, r)]
        if letter == "B":  # alpha_r short
            bonds[-1] = (r - 1, r, -2, -1)
        elif letter == "C":  # alpha_r long
            bonds[-1] = (r - 1, r, -1, -2)
    m = [[2 * (i == j) for j in range(r)] for i in range(r)]
    for i, j, a, b in bonds:
        m[i - 1][j - 1] = a
        m[j - 1][i - 1] = b
    return tuple(tuple(row) for row in m)


@lru_cache(maxsize=None)
def neighbours(letter: str, r: int) -> tuple[tuple[int, ...], ...]:
    """neighbours[i] for 1-based node i (index 0 unused)."""
    c = cartan(letter, r)
    return ((),) + tuple(tuple(j + 1 for j in range(r) if j != i and c[i][j])
                         for i in range(r))


def fractions(v) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in v)


def rref_rank(rows) -> int:
    """Rank over Q: rows scaled to integers, eliminated without division and
    kept primitive (divided by their gcd) so the entries stay small."""
    ints = []
    for row in rows:
        row = fractions(row)
        k = lcm(*(x.denominator for x in row))
        ints.append([int(x * k) for x in row])
    rank = 0
    ncols = len(ints[0]) if ints else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(ints)) if ints[i][c]), None)
        if piv is None:
            continue
        ints[rank], ints[piv] = ints[piv], ints[rank]
        p = ints[rank]
        for i in range(rank + 1, len(ints)):
            f = ints[i][c]
            if f:
                row = [p[c] * x - f * y for x, y in zip(ints[i], p)]
                g = gcd(*row)
                ints[i] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def solve(a, b):
    """The unique solution of a x = b for square a, or None if a is singular."""
    n = len(a)
    m = [list(fractions(row)) + [Fraction(bi)] for row, bi in zip(a, b)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def det(a) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free elimination."""
    m = [list(row) for row in a]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[i][j] * m[c][c] - m[i][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * prev if n else 1


def inverse(a) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of a nonsingular square matrix by Gauss-Jordan elimination."""
    n = len(a)
    m = [list(fractions(row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c])
        m[c], m[piv] = m[piv], m[c]
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for i in range(n):
            f = m[i][c]
            if i != c and f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(tuple(row[n:]) for row in m)


@lru_cache(maxsize=None)
def root_coord_matrix(letter: str, r: int) -> tuple[tuple[Fraction, ...], ...]:
    """(C^T)^-1: maps fundamental-weight coordinates to simple-root ones."""
    return inverse(tuple(zip(*cartan(letter, r))))


@lru_cache(maxsize=None)
def _root_coord_ints(letter: str, r: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d * root_coord_matrix) with d the least scale making it integral."""
    m = root_coord_matrix(letter, r)
    d = lcm(*(x.denominator for row in m for x in row))
    return d, tuple(tuple(int(x * d) for x in row) for row in m)


def root_coords(letter: str, r: int, w) -> tuple[Fraction, ...]:
    """Simple-root coefficients of w, computed in integers over a common denominator."""
    d, a = _root_coord_ints(letter, r)
    w = fractions(w)
    q = lcm(*(x.denominator for x in w))
    wi = [int(x * q) for x in w]
    return tuple(Fraction(sum(ai * xi for ai, xi in zip(row, wi)), d * q) for row in a)


def root_combination(letter: str, r: int, c) -> tuple[Fraction, ...]:
    """Fundamental-weight coordinates of sum_j c_j alpha_j."""
    cm = cartan(letter, r)
    c = fractions(c)
    q = lcm(*(x.denominator for x in c))
    ci = [int(x * q) for x in c]
    return tuple(Fraction(sum(ck * row[j] for ck, row in zip(ci, cm) if ck), q)
                 for j in range(r))


def in_cone(letter: str, r: int, lam, mu) -> bool:
    if min(lam) < 0 or min(mu) < 0:
        return False
    return min(root_coords(letter, r, [a - b for a, b in zip(lam, mu)])) >= 0


def is_extremal(letter: str, r: int, lam, mu) -> bool:
    """A cone point spans an extremal ray iff its tight inequalities have rank 2r-1."""
    lam, mu = fractions(lam), fractions(mu)
    m = root_coord_matrix(letter, r)
    c = root_coords(letter, r, [a - b for a, b in zip(lam, mu)])
    zero = (0,) * r
    tight = []
    for i in range(r):
        e = tuple(int(j == i) for j in range(r))
        if lam[i] == 0:
            tight.append(e + zero)
        if mu[i] == 0:
            tight.append(zero + e)
        if c[i] == 0:
            tight.append(m[i] + tuple(-x for x in m[i]))
    return rref_rank(tight) == 2 * r - 1


def reflect(letter: str, r: int, i: int, w) -> tuple:
    row = cartan(letter, r)[i - 1]
    k = w[i - 1]
    return tuple(x - k * y for x, y in zip(w, row))


def dominant_rep(letter: str, r: int, w) -> tuple:
    """The dominant weight in the Weyl orbit of w, by reflecting away negatives."""
    w = tuple(w)
    while True:
        i = next((i for i, x in enumerate(w, 1) if x < 0), None)
        if i is None:
            return w
        w = reflect(letter, r, i, w)


@lru_cache(maxsize=None)
def positive_roots(letter: str, r: int) -> tuple[tuple[int, ...], ...]:
    """Positive roots in simple-root coordinates, as the orbit of the simple
    roots under simple reflections, kept where all coefficients are >= 0."""
    cm = cartan(letter, r)
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    seen = set(simple)
    todo = list(simple)
    while todo:
        beta = todo.pop()
        for i in range(r):
            pairing = sum(beta[j] * cm[j][i] for j in range(r))
            gamma = tuple(b - pairing * (j == i) for j, b in enumerate(beta))
            if min(gamma) >= 0 and gamma not in seen:
                seen.add(gamma)
                todo.append(gamma)
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def symmetrizer(letter: str, r: int) -> tuple[Fraction, ...]:
    """Half squared root lengths d_j, so that (alpha_i, alpha_j) = c_ij d_j;
    normalised so the shortest is 1."""
    cm = cartan(letter, r)
    nb = neighbours(letter, r)
    d = {1: Fraction(1)}
    todo = [1]
    while todo:
        i = todo.pop()
        for j in nb[i]:
            if j not in d:
                # c_ij d_j = c_ji d_i
                d[j] = d[i] * cm[j - 1][i - 1] / cm[i - 1][j - 1]
                todo.append(j)
    lo = min(d.values())
    return tuple(d[i] / lo for i in range(1, r + 1))


def weyl_dim(letter: str, r: int, lam) -> int:
    """Weyl dimension formula: prod over positive roots of (lam+rho, a)/(rho, a)."""
    d = symmetrizer(letter, r)
    shifted = [Fraction(x) + 1 for x in lam]
    num = den = Fraction(1)
    for alpha in positive_roots(letter, r):
        num *= sum(dj * aj * sj for dj, aj, sj in zip(d, alpha, shifted))
        den *= sum(dj * aj for dj, aj in zip(d, alpha))
    out = num / den
    if out.denominator != 1:
        raise ArithmeticError(f"non-integral Weyl dimension {out}")
    return int(out)


def is_connected(letter: str, r: int, nodes) -> bool:
    nodes = set(nodes)
    if not nodes:
        return False
    nb = neighbours(letter, r)
    start = min(nodes)
    seen = {start}
    todo = [start]
    while todo:
        for j in nb[todo.pop()]:
            if j in nodes and j not in seen:
                seen.add(j)
                todo.append(j)
    return seen == nodes


def components(letter: str, r: int, nodes) -> list[set[int]]:
    left = set(nodes)
    out = []
    while left:
        comp = {min(left)}
        grow = True
        while grow:
            grow = False
            for j in list(comp):
                for k in neighbours(letter, r)[j]:
                    if k in left and k not in comp:
                        comp.add(k)
                        grow = True
        left -= comp
        out.append(comp)
    return out


def subtrees_through(letter: str, r: int, i: int) -> int:
    """Connected node sets containing i.  Dynkin diagrams are trees, so this
    is the product over the neighbours of i of (1 + subtrees hanging there)."""
    nb = neighbours(letter, r)

    def hanging(v: int, parent: int) -> int:
        return prod(1 + hanging(w, v) for w in nb[v] if w != parent)

    return hanging(i, 0)


@lru_cache(maxsize=None)
def slice_vertex_count(letter: str, r: int, support: frozenset) -> int:
    """Vertices of the slice at any lam with the given support: node sets S
    (the empty set included) each of whose components meets the support."""
    count = 0
    for k in range(r + 1):
        for s in combinations(range(1, r + 1), k):
            if all(comp & support for comp in components(letter, r, s)):
                count += 1
    return count


def clear_weight_caches() -> None:
    """Drop the caches keyed by weights, so the checker's memory stays the
    same however long a run is; those keyed by type and rank are bounded by
    the workload's list of types."""
    slice_vertex_count.cache_clear()


def slice_vertices_brute(letter: str, r: int, lam) -> frozenset:
    """Basic feasible solutions of {mu >= 0, root_coords(lam - mu) >= 0}.

    Tries every choice of r of the 2r bounding hyperplanes; independent of
    the Levi construction kostka uses.
    """
    lam = fractions(lam)
    m = root_coord_matrix(letter, r)
    c_lam = root_coords(letter, r, lam)
    # hyperplanes as (coeffs, rhs): mu_i = 0, or (M mu)_j = c_lam_j
    planes = [(tuple(int(j == i) for j in range(r)), Fraction(0)) for i in range(r)]
    planes += [(m[j], c_lam[j]) for j in range(r)]
    out = set()
    for chosen in combinations(planes, r):
        x = solve([p[0] for p in chosen], [p[1] for p in chosen])
        if x is not None and min(x) >= 0 and min(root_coords(letter, r,
                                                              [a - b for a, b in zip(lam, x)])) >= 0:
            out.add(x)
    return frozenset(out)
