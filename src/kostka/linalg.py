"""Exact dense linear algebra over the rationals.

Vectors are tuples of :class:`fractions.Fraction`; matrices are tuples of
row tuples.  ``Fraction`` keeps every entry reduced with a positive
denominator, so equality of vectors and matrices is structural.

Solves run on one fraction-free Gauss-Jordan kernel over ``int`` (Bareiss,
Math. Comp. 22, 1968; Nakos, Turner and Williams, ACM SIGSAM Bull. 31,
1997).  Each row is cleared of denominators by its lcm (``_cleared``; rows
that are all ``int`` already are used as they are); every intermediate
entry is then a minor of that integer matrix, so each division is exact,
and ``Fraction``s are made only from the kernel's result.  Each step
updates only the live columns, those that can still change: from the
pivot column on, or from the first column without a pivot once there is
one; the finished pivot entries are set to the last pivot at the end.

``solve_unique`` takes a right-hand side of one column (a vector) or of
several (a matrix, one row per equation); against the identity it is the
inverse.  ``solve_unique(a, b, integer=True)`` is the
kernel's solve without the ``Fraction``s: the integer numerators of the
solution and their common denominator, the last pivot, which is the
determinant for an integer square system (so against the identity the
numerators are the adjugate).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable

from .errors import MultipleSolutionsError, NoSolutionError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vector(entries: Iterable) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def identity(n: int) -> Mat:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _cleared(values) -> tuple[list, int]:
    """The values times the lcm m of their denominators, as ints, and m.

    Values that are all ``int`` are passed through as they are (m = 1);
    others that are not ``Fraction``s are made ``Fraction``s first.
    """
    if all(type(v) is int for v in values):
        return values, 1
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    m = lcm(*(v.denominator for v in values))
    return [v.numerator * (m // v.denominator) for v in values], m


def _integer_rows(rows) -> tuple[list, int]:
    """Each row cleared of denominators (``_cleared``), and the product of the lcms."""
    out = [_cleared(row) for row in rows]
    return [row for row, _ in out], prod(m for _, m in out)


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

