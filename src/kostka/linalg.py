"""Exact integer linear algebra: one fraction-free elimination kernel.

The kernel, ``_eliminate`` (Bareiss, Math. Comp. 22, 1968; Nakos, Turner and
Williams, ACM SIGSAM Bull. 31, 1997), works on integer rows in place and
runs in two phases: ``_forward``, Bareiss's echelon form (all a rank needs),
then ``_back``, which substitutes up into d times the reduced row echelon
form, d the last pivot.  Every division is exact.  A Dynkin block in
Bourbaki order is a tree with about one nonzero below each pivot and about
one later pivot column in each echelon row, so [C_L^T | I] costs O(k^2)
rather than Gauss-Jordan's O(k^3).

``solve_unique(a)`` is the integer inverse of a square integer matrix: the
adjugate and the determinant, from one elimination of [a | I].  Rationals
meet the kernel only at its callers: ``vector`` makes a weight a tuple of
``Fraction``s, and ``_cleared`` turns rational values into integers over the
lcm of their denominators.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import chain
from math import lcm

from .errors import NoSolutionError

Vec = tuple[Fraction, ...]


def vector(entries: Iterable) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def _cleared(values) -> tuple[list, int]:
    """The values, ints and ``Fraction``s, times the lcm m of their
    denominators, as ints, and m.  Values that are all ``int`` are passed
    through as they are (m = 1).  A weight from outside the package reaches
    them only through ``rootdata._weight``, which makes any other entry a
    ``Fraction``.
    """
    if set(map(type, values)) <= {int}:
        return values, 1
    m = lcm(*(v.denominator for v in values))
    return [v.numerator * (m // v.denominator) for v in values], m


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


def solve_unique(a) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The integer inverse of the square integer matrix a: (adj, det) with
    a^-1 = adj / det, adj the adjugate and det the determinant, sign included.
    The rows of a are read, not changed.

    Raises :class:`NoSolutionError` if a is singular, ``ValueError`` if a is
    not square (or its rows are ragged) and ``TypeError`` if an entry is not
    an ``int``: the kernel's floor divisions are exact only on integers.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"not a square matrix: {n} rows of lengths {sorted({len(row) for row in a})}")
    if not set(map(type, chain.from_iterable(a))) <= {int}:
        raise TypeError("solve_unique takes a matrix of ints")
    zeros = (0,) * n
    rows = [[*row, *zeros[:i], 1, *zeros[i + 1:]] for i, row in enumerate(a)]
    pivots, det = _eliminate(rows)
    # [a | I] has rank n: a is singular exactly when a pivot falls in I
    if n and pivots[-1] >= n:
        raise NoSolutionError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows), det
