import random
from fractions import Fraction as Q
from math import lcm, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kostka import linalg
from kostka.errors import NoSolutionError


def _solve(a, b, integer=False):
    """A x = b over the rationals for a square A, on the package's one solve: x = adj b / d,
    (adj, d) the integer inverse of A once each row of [A | b] is cleared of denominators.

    b is a vector, or a matrix of several right-hand sides given by its rows (one
    per equation); the solution has b's shape, one row per unknown.  With
    integer=True it is (numerators, d), x = numerators / d.  Raises
    NoSolutionError if A is singular, whether or not A x = b is consistent.
    """
    n = len(a)
    columns = bool(b) and isinstance(b[0], (tuple, list))
    rows = [linalg._cleared([*row, *(v if columns else (v,))])[0] for row, v in zip(a, b)]
    adj, d = linalg.solve_unique([row[:n] for row in rows])
    rhs = list(zip(*(row[n:] for row in rows)))  # the cleared right-hand sides, one per column
    nums = tuple(tuple(sum(x * y for x, y in zip(adj_row, col)) for col in rhs) for adj_row in adj)
    if columns:
        x = tuple(tuple(Q(v, d) for v in row) for row in nums)
    else:
        nums = tuple(row[0] for row in nums)
        x = tuple(Q(v, d) for v in nums)
    return (nums, d) if integer else x


def _identity(n):
    return tuple(tuple(Q(int(i == j)) for j in range(n)) for i in range(n))


def _cleared_rows(a):
    # each row cleared of denominators, and the product of the lcms
    out = [linalg._cleared(row) for row in a]
    return [row for row, _ in out], prod(m for _, m in out)


def test_solve_1x1():
    assert _solve([[2]], [1]) == (Q(1, 2),)


def test_solve_c2_cartan_system():
    # 2x - y = 1, -2x + 2y = 0  =>  x = y = 1 (by hand elimination)
    assert _solve([[2, -1], [-2, 2]], [1, 0]) == (1, 1)
    # several right-hand sides, given as the rows of a matrix: one row per unknown back
    assert _solve([[2, -1], [-2, 2]], [[1, 1, 0], [0, 0, 1]]) == \
        ((1, 1, Q(1, 2)), (1, 1, 1))


def test_solve_inconsistent():
    with pytest.raises(NoSolutionError):
        _solve([[1, 1], [2, 2]], [1, 3])
    with pytest.raises(NoSolutionError):
        _solve([[1, 1], [2, 2]], [[1, 1], [2, 3]])


def test_solve_underdetermined():
    # consistent, but without a unique solution: refused as the inconsistent system is
    with pytest.raises(NoSolutionError):
        _solve([[1, 1], [2, 2]], [1, 2])
    with pytest.raises(NoSolutionError):
        _solve([[1, 1], [2, 2]], [[1, 1], [2, 2]])


def test_solve_unique_integer_examples():
    # the integer inverse: the adjugate and the determinant, sign included
    assert linalg.solve_unique([[2, -1], [-2, 2]]) == (((2, 1), (2, 2)), 2)
    assert linalg.solve_unique([[0, 1], [1, 0]]) == (((0, -1), (-1, 0)), -1)
    assert linalg.solve_unique(()) == ((), 1)
    with pytest.raises(NoSolutionError):
        linalg.solve_unique([[1, 1], [2, 2]])
    # integers only: an exact floor division needs them, and a Fraction entry would
    # pass through the kernel's // to a wrong verdict
    with pytest.raises(TypeError):
        linalg.solve_unique([[Q(1, 2), Q(1, 3)], [Q(1, 5), 2]])
    with pytest.raises(ValueError):
        linalg.solve_unique([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        linalg.solve_unique([[1, 2], [3]])
    # the last pivot is the determinant of an integer square system, sign included
    assert _solve([[2, -1], [-2, 2]], [1, 0], integer=True) == ((2, 2), 2)
    assert _solve([[0, 1], [1, 0]], [3, 5], integer=True) == ((-5, -3), -1)
    assert _solve([[Q(1, 2)]], [Q(1, 3)], integer=True) == ((2,), 3)
    with pytest.raises(NoSolutionError):
        _solve([[1, 1], [2, 2]], [1, 2], integer=True)


# the inverse is the solve against the identity


def test_invert_1x1():
    assert _solve([[2]], _identity(1)) == ((Q(1, 2),),)
    assert linalg.solve_unique([[2]]) == (((1,),), 2)


def test_invert_c2_cartan():
    inv = _solve([[2, -1], [-2, 2]], _identity(2))
    assert inv == ((1, Q(1, 2)), (1, 1))  # = (1/2) * [[2,1],[2,2]]
    assert inv == _solve([[2, -1], [-2, 2]], [(1, 0), (0, 1)])


def test_invert_identity():
    assert _solve(_identity(3), _identity(3)) == _identity(3)
    eye = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    assert linalg.solve_unique(eye) == (eye, 1)


def test_invert_singular():
    # the identity has full rank, so [A | I] is inconsistent for a singular A
    with pytest.raises(NoSolutionError):
        _solve([[1, 2], [2, 4]], _identity(2))
    with pytest.raises(NoSolutionError):
        linalg.solve_unique([[1, 2], [2, 4]])


def _rank(a):
    return len(linalg._forward(_cleared_rows(a)[0])[0])


def _det(a):
    # the last pivot over the scale of the cleared rows, 0 without a full set of pivots
    rows, scale = _cleared_rows(a)
    pivots, d = linalg._forward(rows)
    return Q(d, scale) if len(pivots) == len(a) else 0


def test_rank_examples():
    assert _rank(((0, 0), (0, 0))) == 0
    assert _rank(_identity(4)) == 4
    assert _rank(((1, 2), (2, 4))) == 1


def test_nullspace_dim_examples():
    assert 3 - _rank(_identity(3)) == 0
    assert 3 - _rank(((0, 0, 0),)) == 3
    assert 2 - _rank(((1, -1),)) == 1
    assert 5 - _rank(()) == 5


def test_det_examples():
    assert _det(()) == 1
    assert _det(((2, -1), (-2, 2))) == 2
    assert _det(((1, 2), (2, 4))) == 0
    # permutation matrices make the elimination swap rows
    assert _det(((0, 1), (1, 0))) == -1
    assert _det(((0, 1, 0), (0, 0, 1), (1, 0, 0))) == 1
    assert _det(((0, 0, 1), (0, 1, 0), (1, 0, 0))) == -1


def test_eliminate_takes_tuple_rows():
    # is_extremal_ray passes its cached integer forms as tuples
    rows = [(2, -1, 0), (-1, 2, -1), (0, -1, 2)]
    as_lists = [list(r) for r in rows]
    # rows that are all int need no clearing and are passed through as they are
    assert [linalg._cleared(row) for row in rows] == [(row, 1) for row in rows]
    assert all(linalg._cleared(row)[0] is row for row in rows)
    assert linalg._forward(rows) == linalg._forward(as_lists) == ([0, 1, 2], 4)
    assert rows == as_lists == [[2, -1, 0], [0, 3, -2], [0, 0, 4]]
    # a swap negates the row it moves down, so the last pivot keeps the determinant's sign
    swapped = [(0, 1), (1, 0)]
    assert linalg._forward(swapped) == ([0, 1], -1) and swapped == [[1, 0], [0, -1]]


@pytest.mark.parametrize("rows, pivots, rref", [
    # a zero column first: the pivots start one column on
    ([[0, 2, 1], [0, 1, 1]], [1, 2], [[0, 1, 0], [0, 0, 1]]),
    # column 1 has no pivot but a nonzero entry above it, which the pivot
    # of column 2 must still scale
    ([[1, 2, 3], [2, 4, 5]], [0, 2], [[1, 2, 0], [0, 0, 1]]),
    ([[1, 2, 3, 1], [2, 4, 5, 0], [3, 6, 8, 2]], [0, 2, 3],
     [[1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
], ids=["zero-column", "skipped-column", "skipped-column-then-two-pivots"])
def test_eliminate_with_a_column_without_pivot(rows, pivots, rref):
    got, d = linalg._forward(rows)
    assert got == pivots
    # echelon rows: each pivot row zero left of its pivot, and together they span the input's rows
    assert all(row[c] and not any(row[:c]) for row, c in zip(rows, got))
    assert _sym(rows[:len(got)]).rref()[0].tolist() == rref
    assert all(not v for row in rows[len(got):] for v in row)


def _random_matrix(rng, n):
    return tuple(tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
                 for _ in range(n))


def test_inverse_roundtrip_random():
    rng = random.Random(7)
    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n)
        try:
            inv = _solve(a, _identity(n))
        except NoSolutionError:
            continue
        assert tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*inv))
                     for row in a) == _identity(n)
        assert _solve(inv, _identity(n)) == a
        done += 1


def test_solve_exactness_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n)
        x = tuple(Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        b = tuple(sum(u * v for u, v in zip(row, x)) for row in a)
        try:
            got = _solve(a, b)
        except NoSolutionError:
            continue
        assert tuple(sum(u * v for u, v in zip(row, got)) for row in a) == b


def test_rank_equals_transpose_rank_random():
    rng = random.Random(13)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = tuple(tuple(Q(rng.randint(-3, 3)) for _ in range(cols)) for _ in range(rows))
        assert _rank(a) == _rank(tuple(zip(*a)))


_entries = st.one_of(st.just(Q(0)),
                     st.builds(Q, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def _rational_systems(draw):
    """A rational matrix up to 6x6 with a right-hand side.

    Zero columns and rows that are multiples of other rows are planted so
    that rank-deficient and inconsistent systems come up often.
    """
    m = draw(st.integers(1, 6))
    n = m if draw(st.booleans()) else draw(st.integers(1, 6))
    a = [[draw(_entries) for _ in range(n)] for _ in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in a:
            row[j] = Q(0)
    if m > 1 and draw(st.booleans()):
        src, dst = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        f = draw(_entries)
        a[dst] = [f * v for v in a[src]]
    b = [draw(_entries) for _ in range(m)]
    return tuple(map(tuple, a)), tuple(b)


@st.composite
def _sparse_blocks(draw):
    """A sparse square integer matrix up to 9 rows, shaped like a Cartan block.

    A tree or a band of nonzero entries with zeros drawn onto the diagonal, so
    that leading entries are zero and rows are swapped; then the rows shuffled.
    """
    m = draw(st.integers(1, 9))
    a = [[0] * m for _ in range(m)]
    tree = draw(st.booleans())
    width = draw(st.integers(1, 2))
    for i in range(m):
        a[i][i] = draw(st.sampled_from((0, 1, 2, 2, 2, -3)))
        # a tree joins row i to one earlier row, a band to the `width` rows before it
        earlier = ([draw(st.integers(0, i - 1))] if i else []) if tree else range(max(0, i - width), i)
        for j in earlier:
            a[i][j], a[j][i] = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    return draw(st.permutations(a))


@st.composite
def _sparse_systems(draw):
    """A ``_sparse_blocks`` matrix with a right-hand side.

    By draw, a column inserted that is a multiple of an earlier one (a column
    without a pivot, with nonzero entries above), a row that is a combination
    of two others (a rank-deficient row), and the identity appended ([A | I]).
    """
    a = draw(_sparse_blocks())
    m = len(a)
    if draw(st.booleans()):
        j, k, f = draw(st.integers(0, m)), draw(st.integers(0, m - 1)), draw(st.integers(-2, 2))
        for row in a:
            row.insert(j, f * row[min(k, j - 1)] if j else 0)
    if m > 2 and draw(st.booleans()):
        src1, src2, dst = draw(st.permutations(range(m)))[:3]
        f, g = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        a[dst] = [f * v + g * w for v, w in zip(a[src1], a[src2])]
    if draw(st.booleans()):
        a = [row + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
    b = [draw(st.integers(-3, 3)) for _ in range(m)]
    return tuple(map(tuple, a)), tuple(b)


@st.composite
def _square_int_matrices(draw):
    """A square integer matrix with tuple or list rows: a ``_sparse_blocks`` one,
    made singular by draw (a row set to a multiple of another, or to zero), or a
    permutation matrix (det -1 for an odd permutation)."""
    if draw(st.booleans()):
        a = draw(_sparse_blocks())
        m = len(a)
        if draw(st.booleans()):
            src, dst = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            f = draw(st.integers(-2, 2)) if src != dst else 0
            a[dst] = [f * v for v in a[src]]
    else:
        perm = draw(st.permutations(range(draw(st.integers(1, 9)))))
        a = [[int(j == p) for j in range(len(perm))] for p in perm]
    kind = draw(st.sampled_from((tuple, list)))
    return kind(map(kind, a))


@settings(max_examples=300, deadline=None)
@given(_square_int_matrices(), st.data())
def test_solve_unique_is_the_integer_inverse(a, data):
    n = len(a)
    rows, entries = list(a), [list(row) for row in a]
    want = int(sympy.Matrix(a).det())
    if want:
        adj, det = linalg.solve_unique(a)
        assert det == want
        assert type(det) is int and all(type(x) is int for row in adj for x in row)
        assert [[sum(adj[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)] \
            == [[det * (i == j) for j in range(n)] for i in range(n)]
    else:
        with pytest.raises(NoSolutionError):
            linalg.solve_unique(a)
    # the caller's rows are read, not changed
    assert all(got is row for got, row in zip(a, rows)) and [list(row) for row in a] == entries
    i = data.draw(st.integers(0, n - 1))
    with pytest.raises(ValueError):  # ragged
        linalg.solve_unique([row[:-1] if k == i else row for k, row in enumerate(a)])
    with pytest.raises(ValueError):  # not square
        linalg.solve_unique([*a, a[i]])
    with pytest.raises(TypeError):
        linalg.solve_unique([(Q(row[0]), *row[1:]) if k == i else row for k, row in enumerate(a)])


def _sym(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])


def _frac(x):
    return Q(int(x.p), int(x.q))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_rational_systems(), _sparse_systems()))
def test_forward_phase_pivot_count_is_the_rank(system):
    # is_extremal_ray reads a rank from the forward phase alone
    a, _ = system
    rows, _ = _cleared_rows(a)
    assert len(linalg._forward(rows)[0]) == _sym(a).rank()


@settings(max_examples=300, deadline=None)
@given(st.one_of(_rational_systems(), _sparse_systems()), st.data())
def test_kernel_matches_sympy(system, data):
    a, b = system
    sa = _sym(a)
    m, n = len(a), len(a[0])
    r = sa.rank()
    rref, sym_pivots = sa.rref()
    rows, a_scale = _cleared_rows(a)
    pivots, last = linalg._forward(rows)
    assert pivots == list(sym_pivots) and len(pivots) == r
    assert _sym(rows[:r]).rref()[0].tolist() == rref[:r, :].tolist()  # the same row space
    assert all(not v for row in rows[r:] for v in row)
    if m != n:  # the package solves square systems only
        return
    d = _frac(sa.det())
    # the last pivot is the determinant of the cleared rows
    assert (Q(last, a_scale) if len(pivots) == n else 0) == d
    # b and up to two more right-hand sides
    extra = data.draw(st.lists(st.lists(_entries, min_size=m, max_size=m), max_size=2))
    cols = tuple(zip(b, *extra))
    if not d:
        for rhs in (b, cols, _identity(n)):
            with pytest.raises(NoSolutionError):
                _solve(a, rhs)
        return
    x, _ = sa.gauss_jordan_solve(_sym([(v,) for v in b]))
    assert _solve(a, b) == tuple(_frac(v) for v in x)
    nums, d_b = _solve(a, b, integer=True)
    assert tuple(Q(v, d_b) for v in nums) == tuple(_frac(v) for v in x)
    # d_b is the determinant once each row of [A | b] is cleared of denominators
    scale = prod(lcm(*(v.denominator for v in row + (c,))) for row, c in zip(a, b))
    assert d_b == d * scale
    xs, _ = sa.gauss_jordan_solve(_sym(cols))
    want = tuple(tuple(_frac(xs[i, j]) for j in range(len(cols[0]))) for i in range(n))
    assert _solve(a, cols) == want
    nums, d_cols = _solve(a, cols, integer=True)
    assert tuple(tuple(Q(v, d_cols) for v in row) for row in nums) == want
    inv = sa.inv()
    assert _solve(a, _identity(n)) == \
        tuple(tuple(_frac(inv[i, j]) for j in range(n)) for i in range(n))
