"""Exact dense linear algebra over the rationals.

Vectors are tuples of :class:`fractions.Fraction`; matrices are tuples of
row tuples.  ``Fraction`` keeps every entry reduced with a positive
denominator, so equality of vectors and matrices is structural.

Solves run on one fraction-free elimination kernel over ``int``,
``_eliminate`` (Bareiss, Math. Comp. 22, 1968; Nakos, Turner and Williams,
ACM SIGSAM Bull. 31, 1997).  Each row is cleared of denominators by its lcm
(``_cleared``; rows that are all ``int`` already are used as they are), and
``Fraction``s are made only from the kernel's result.  The kernel runs in
two phases: ``_forward``, Bareiss's echelon form (all a rank needs), then
``_back``, which substitutes up into d times the reduced row echelon form,
d the last pivot.  Every division is exact.  A Dynkin block in Bourbaki
order is a tree with about one nonzero below each pivot and about one
later pivot column in each echelon row, so [C_L^T | I] costs O(k^2)
rather than Gauss-Jordan's O(k^3).

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
    if set(map(type, values)) <= {int}:
        return values, 1
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    m = lcm(*(v.denominator for v in values))
    return [v.numerator * (m // v.denominator) for v in values], m


def _integer_rows(rows) -> tuple[list, int]:
    """Each row cleared of denominators (``_cleared``), and the product of the lcms."""
    out = [_cleared(row) for row in rows]
    return [row for row, _ in out], prod(m for _, m in out)


def _eliminate(rows: list) -> tuple[list[int], int]:
    """In-place fraction-free elimination over int, ``_forward`` then ``_back``:
    the pivot columns and the last pivot d, the determinant of the block on the
    pivot rows and columns (each swap negates the row it moves down, so d keeps
    its sign).  List rows are updated in place, tuple rows replaced by lists; on
    return row i / d is row i of the RREF and the rows past the last pivot are zero.
    """
    pivots, d = _forward(rows)
    _back(rows, pivots, d)
    return pivots, d


def _forward(rows: list) -> tuple[list[int], int]:
    """Bareiss's echelon form in place, of rows as ``_eliminate`` takes them: the
    pivot columns (their count is the rank) and the last pivot d.  On return
    each pivot row is its echelon row U_r, and the rows past the last pivot are zero.

    The pivot of column c updates only the rows below it whose entry in column
    c is nonzero, and only from column c on (the rows below are zero left of
    it).  A row with a zero there would only be scaled by p / prev, so it is
    left alone and remembers the pivot s it was last brought to: its true
    entries are v * prev / s.  As the next pivot row it is brought to prev by
    that exact division; when next updated, (p * (v prev / s) - (f prev / s)
    * w) / prev folds to (p v - f w) / s.  Both results are minors of the input.
    """
    for i, row in enumerate(rows):
        if type(row) is not list:
            rows[i] = list(row)
    n = len(rows)
    scale = [1] * n  # the pivot each row was last brought to
    pivots: list[int] = []
    prev = 1
    pr = 0
    for c in range(len(rows[0]) if rows else 0):
        hit = pr
        while hit < n and not rows[hit][c]:
            hit += 1
        if hit == n:
            continue
        if hit != pr:
            rows[pr], rows[hit] = rows[hit], [-v for v in rows[pr]]
            scale[pr], scale[hit] = scale[hit], scale[pr]
        top = rows[pr]
        if scale[pr] != prev:
            s = scale[pr]
            top[c:] = [v * prev // s for v in top[c:]]
        seg = top[c:]
        p = seg[0]
        for i in range(pr + 1, n):
            row = rows[i]
            f = row[c]
            if f:
                s = scale[i]
                row[c:] = [(p * v - f * w) // s for v, w in zip(row[c:], seg)]
                scale[i] = p
        pivots.append(c)
        prev = p
        pr += 1
        if pr == n:
            break
    return pivots, prev


def _back(rows: list, pivots: list[int], d: int) -> None:
    """``_forward``'s echelon rows, of last pivot d, to d times the reduced row
    echelon form, in place from the last pivot row up: with U_r the echelon row
    of pivot p_r and F_j = d * (RREF row j), F_r = (d U_r - the sum of U_r[c_j]
    F_j over the later pivot columns c_j) / p_r, exact because F_r is adj(B)
    times the pivot rows, B their block on the pivot columns.  Where every
    column from c_r to the last pivot column has a pivot, F_r is d, 0, ..., 0
    there and only the later columns are computed.
    """
    n = len(pivots)
    for r in range(n - 2, -1, -1):  # the last pivot row is already final: its pivot is d
        row, c = rows[r], pivots[r]
        p = row[c]  # p_r: the rows below are final, this one is still U_r
        later = [(row[cj], rows[j]) for j, cj in enumerate(pivots[r + 1:], r + 1) if row[cj]]
        # every column from c to the last pivot column has a pivot: there the row is d, 0, ..., 0
        lo = pivots[-1] + 1 if pivots[-1] - c == n - 1 - r else c
        if lo > c:
            row[c:lo] = [d] + [0] * (lo - c - 1)
        # (d U_r - the later F_j) / p_r, with d multiplied in on the first pass
        acc, g = row[lo:], d
        for f, other in later:
            acc, g = [g * a - f * w for a, w in zip(acc, other[lo:])], 1
        row[lo:] = [g * a // p for a in acc]


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

