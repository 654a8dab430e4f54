"""Exact dense linear algebra over the rationals.

Vectors are tuples of :class:`fractions.Fraction`; matrices are tuples of
row tuples.  ``Fraction`` keeps every entry reduced with a positive
denominator, so equality of vectors and matrices is structural.

Solve and inverse share one fraction-free Gauss-Jordan kernel over ``int``
(Bareiss, Math. Comp. 22, 1968; Nakos, Turner and Williams, ACM SIGSAM
Bull. 31, 1997).  Each row is cleared of denominators by its lcm (rows
that are all ``int`` already are used as they are); every intermediate
entry is then a minor of that integer matrix, so each division is exact,
and ``Fraction``s are made only from the kernel's result.  Each step
updates only the live columns, those that can still change: from the
pivot column on, or from the first column without a pivot once there is
one; the finished pivot entries are set to the last pivot at the end.

``solve_unique`` takes a right-hand side of one column (a vector) or of
several (a matrix, one row per equation), and ``invert`` is the solve
against the identity.  ``solve_unique(a, b, integer=True)`` is the
kernel's solve without the ``Fraction``s: the integer numerators of the
solution and their common denominator, the last pivot, which is the
determinant for an integer square system (so against the identity the
numerators are the adjugate).
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


def mat_vec(a: Mat, x) -> tuple:
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in a)


def _integer_rows(rows) -> tuple[list, int]:
    """Each row times the lcm of its denominators, and the product of those lcms.

    A row whose entries are all ``int`` is passed through as it is.
    """
    out = []
    scale = 1
    for row in rows:
        if all(type(v) is int for v in row):
            out.append(row)
            continue
        row = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
        m = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (m // v.denominator) for v in row])
        scale *= m
    return out, scale


def _eliminate(rows: list) -> tuple[list[int], int]:
    """In-place fraction-free Gauss-Jordan elimination over int.

    Rows that are lists are updated in place; other rows (tuples) are
    replaced by lists.  Returns the pivot columns and the last pivot d, the
    determinant of the block on the pivot rows and columns.  Each swap
    negates the row it moves down, so d keeps its sign: for a nonsingular
    square input it is the determinant.  On return every pivot entry
    equals d, and row i divided by d is row i of the reduced row echelon
    form.
    """
    for i, row in enumerate(rows):
        if type(row) is not list:
            rows[i] = list(row)
    pivots: list[int] = []
    prev = 1
    pr = 0
    skipped = None  # the first column without a pivot
    for c in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(pr, len(rows)) if rows[i][c]), None)
        if hit is None:
            if skipped is None:
                skipped = c
            continue
        if hit != pr:
            rows[pr], rows[hit] = rows[hit], [-v for v in rows[pr]]
        # earlier pivot columns are zero off their pivot rows and stay so
        lo = c if skipped is None else skipped
        top = rows[pr][lo:]
        p = top[c - lo]
        for i, row in enumerate(rows):
            if i != pr:
                f = row[c]
                if f:
                    row[lo:] = [(p * v - f * w) // prev for v, w in zip(row[lo:], top)]
                elif p != prev:
                    row[lo:] = [p * v // prev for v in row[lo:]]
        pivots.append(c)
        prev = p
        pr += 1
        if pr == len(rows):
            break
    for i, c in enumerate(pivots):
        rows[i][c] = prev
    return pivots, prev


def solve_unique(a: Mat, b, *, integer: bool = False):
    """Solve A x = b, insisting on a unique solution.

    b is a vector, or a matrix of several right-hand sides given by its
    rows (one per equation); the solution is then a matrix of the same
    shape as b, one row per unknown.

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
    columns = bool(b) and isinstance(b[0], (tuple, list))
    rows, _ = _integer_rows(row + [*v] if columns else row + [v] for row, v in zip(a, b))
    pivots, d = _eliminate(rows)
    if pivots and pivots[-1] >= ncols:
        raise NoSolutionError("inconsistent linear system")
    if len(pivots) < ncols:
        raise MultipleSolutionsError("rank-deficient linear system")
    if columns:
        nums = tuple(tuple(rows[i][ncols:]) for i in range(ncols))
        return (nums, d) if integer else tuple(tuple(Fraction(n, d) for n in row) for row in nums)
    nums = tuple(rows[i][ncols] for i in range(ncols))
    return (nums, d) if integer else tuple(Fraction(n, d) for n in nums)


def invert(a: Mat) -> Mat:
    """The inverse of a square matrix: the solve against the identity."""
    a = [[*row] for row in a]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inversion needs a square matrix")
    try:
        return solve_unique(a, [[int(i == j) for j in range(n)] for i in range(n)])
    except (NoSolutionError, MultipleSolutionsError):
        raise SingularMatrixError("matrix is singular") from None
