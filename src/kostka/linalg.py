"""Exact integer linear algebra: one fraction-free elimination kernel.

The kernel, ``_forward`` (Bareiss, Math. Comp. 22, 1968), brings integer rows
in place to Bareiss's echelon form, whose pivot count is the rank.  Its one
solve, ``solve_unique(a)``, is the integer inverse of a square integer matrix:
the adjugate and the determinant, from ``_forward`` on [a | I] and a
fraction-free back substitution of the right half (Nakos, Turner and Williams,
ACM SIGSAM Bull. 31, 1997).  Every division is exact.  A Dynkin block in
Bourbaki order is a tree with about one nonzero below each pivot and about one
later nonzero in each echelon row, so [C_L^T | I] costs O(k^2) rather than
Gauss-Jordan's O(k^3).  Rationals meet the kernel only at its callers:
``_cleared`` turns rational values into integers over the lcm of their
denominators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

from .errors import NoSolutionError

Vec = tuple[Fraction, ...]


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


def _forward(rows: list) -> tuple[list[int], int]:
    """Bareiss's echelon form in place, of integer rows (lists are updated in place,
    tuples replaced by lists): the pivot columns (their count is the rank) and the
    last pivot d, the determinant of the block on the pivot rows and columns (each
    swap negates the row it moves down, so d keeps its sign).  On return each pivot
    row is its echelon row U_r, and the rows past the last pivot are zero.

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
    pivots, det = _forward(rows)
    # [a | I] has rank n: a is singular exactly when a pivot falls in I
    if n and pivots[-1] >= n:
        raise NoSolutionError("singular matrix")
    # Every pivot is on the diagonal: row r of det times the reduced form is [det e_r | F_r],
    # F_r the adjugate's row r, so F_r = (det U_r - the sum of U_r[j] F_j over j > r) / U_r[r]
    # on the right half, from the last row up, and the division is exact.
    adj: list[list[int]] = []  # F_{n-1}, ..., F_{r+1}
    for r in range(n - 1, -1, -1):
        row = rows[r]
        acc, g = row[n:], det  # det is multiplied in on the first pass
        for f, other in zip(row[n - 1:r:-1], adj):
            if f:
                acc, g = [g * x - f * w for x, w in zip(acc, other)], 1
        adj.append([g * x // row[r] for x in acc])
    return tuple(map(tuple, reversed(adj))), det
