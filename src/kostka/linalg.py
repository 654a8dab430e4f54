"""Exact dense linear algebra over the rationals.

Vectors are tuples of :class:`fractions.Fraction`; matrices are tuples of
row tuples.  ``Fraction`` keeps every entry reduced with a positive
denominator, so equality of vectors and matrices is structural.

Rank, determinant, solve and inverse share one fraction-free Gauss-Jordan
kernel over ``int`` (Bareiss, Math. Comp. 22, 1968; Nakos, Turner and
Williams, ACM SIGSAM Bull. 31, 1997).  Each row is cleared of denominators
by its lcm; every intermediate entry is then a minor of that integer
matrix, so each division is exact, and ``Fraction``s are made only from
the kernel's result.  ``solve_unique(a, b, integer=True)`` is the
kernel's solve without the ``Fraction``s: the integer numerators of the
solution and their common denominator, the last pivot, which is the
determinant for an integer square system.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import MultipleSolutionsError, NoSolutionError, SingularMatrixError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vector(entries: Iterable) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def matrix(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("rows of unequal length")
    return out


def identity(n: int) -> Mat:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_vec(a: Mat, x) -> tuple:
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(sum(u * v for u, v in zip(row, col)) for col in bt) for row in a)


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of those lcms."""
    out = []
    scale = 1
    for row in rows:
        row = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
        m = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (m // v.denominator) for v in row])
        scale *= m
    return out, scale


def _eliminate(rows: list[list[int]]) -> tuple[list[int], int]:
    """In-place fraction-free Gauss-Jordan elimination over int.

    Returns the pivot columns and the last pivot d, the determinant of the
    block on the pivot rows and columns.  Each swap negates the row it moves
    down, so d keeps its sign: for a nonsingular square input it is the
    determinant.  On return every pivot entry equals d, and row i divided
    by d is row i of the reduced row echelon form.
    """
    pivots: list[int] = []
    prev = 1
    pr = 0
    for c in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(pr, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        if hit != pr:
            rows[pr], rows[hit] = rows[hit], [-v for v in rows[pr]]
        top = rows[pr]
        p = top[c]
        for i, row in enumerate(rows):
            if i != pr:
                f = row[c]
                rows[i] = [(p * v - f * w) // prev for v, w in zip(row, top)]
        pivots.append(c)
        prev = p
        pr += 1
        if pr == len(rows):
            break
    return pivots, prev


def rank(a: Mat) -> int:
    rows, _ = _integer_rows(a)
    return len(_eliminate(rows)[0])


def nullspace_dim(a: Mat, cols: int | None = None) -> int:
    if a:
        cols = len(a[0])
    elif cols is None:
        raise ValueError("empty matrix needs an explicit column count")
    return cols - rank(a)


def det(a: Mat) -> Fraction:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    rows, scale = _integer_rows(a)
    pivots, d = _eliminate(rows)
    return Fraction(d, scale) if len(pivots) == n else Fraction(0)


def solve_unique(a: Mat, b, *, integer: bool = False):
    """Solve A x = b, insisting on a unique solution.

    With ``integer=True`` the result is the kernel's own, without the
    ``Fraction``s: the integer numerators n and the last pivot d, x = n / d.
    d is the determinant of A once each row of [A | b] is cleared of
    denominators, so it is det A when A and b are integer and A is square;
    it may be negative and n / d need not be reduced.

    Raises :class:`NoSolutionError` on inconsistent systems and
    :class:`MultipleSolutionsError` on consistent rank-deficient ones.
    """
    a = [[*row] for row in a]
    b = [*b]
    if len(a) != len(b):
        raise ValueError("matrix/vector size mismatch")
    ncols = len(a[0]) if a else 0
    if any(len(r) != ncols for r in a):
        raise ValueError("rows of unequal length")
    rows, _ = _integer_rows(row + [v] for row, v in zip(a, b))
    pivots, d = _eliminate(rows)
    if pivots and pivots[-1] == ncols:
        raise NoSolutionError("inconsistent linear system")
    if len(pivots) < ncols:
        raise MultipleSolutionsError("rank-deficient linear system")
    nums = tuple(rows[i][ncols] for i in range(ncols))
    return (nums, d) if integer else tuple(Fraction(n, d) for n in nums)


def invert(a: Mat) -> Mat:
    a = [[*row] for row in a]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inversion needs a square matrix")
    rows, _ = _integer_rows(row + [int(i == j) for j in range(n)] for i, row in enumerate(a))
    pivots, d = _eliminate(rows)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(Fraction(v, d) for v in row[n:]) for row in rows)
