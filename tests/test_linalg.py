from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from stratsys.linalg import (RationalMatrix, format_rational, invert,
                             kernel_basis, kernel_matrix,
                             parse_rational, rank, rank_of_rows,
                             rank_of_sparse_rows, solve, span_basis)


def mat(rows):
    return RationalMatrix.from_rows(rows)


def column(entries):
    return RationalMatrix.from_rows([[x] for x in entries], cols=1)


def test_rank_identity():
    assert rank(RationalMatrix.identity(2)) == 2


def test_rank_proportional_rows():
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_rank_empty():
    assert rank(RationalMatrix.zero(0, 5)) == 0
    assert rank(RationalMatrix.zero(5, 0)) == 0


def test_kernel_proportional_rows():
    basis = kernel_basis(mat([[1, 2], [2, 4]]))
    assert basis == [(Fraction(-2), Fraction(1))]


def test_kernel_identity_empty():
    assert kernel_basis(RationalMatrix.identity(3)) == []


def test_kernel_zero_matrix_full():
    basis = kernel_basis(RationalMatrix.zero(2, 3))
    assert len(basis) == 3


def test_solve_identity():
    assert solve(RationalMatrix.identity(2), column([3, 5])) == column([3, 5])
    assert solve(RationalMatrix.identity(2), mat([[3, 7], [5, 0]])) == mat([[3, 7], [5, 0]])


def test_solve_underdetermined_free_vars_zero():
    assert solve(mat([[1, 1]]), column([2])) == column([2, 0])
    assert solve(mat([[1, 1]]), mat([[2, -1]])) == mat([[2, -1], [0, 0]])


def test_solve_inconsistent():
    assert solve(mat([[1], [1]]), column([0, 1])) is None
    # one consistent column does not rescue the other
    assert solve(mat([[1], [1]]), mat([[1, 0], [1, 1]])) is None


def test_invert_rational_entries():
    m = mat([[Fraction(1, 2), 0], [1, 1]])
    inv = invert(m)
    assert inv.mul(m).entries == RationalMatrix.identity(2).entries


def test_span_basis_dedup():
    basis = span_basis([(1, 2), (2, 4), (0, 1)], 2)
    assert len(basis) == 2


def test_rational_round_trip():
    for text in ("3", "-7", "3/4", "-22/7"):
        assert format_rational(parse_rational(text)) == text


small_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def small_matrices(draw, square=False):
    """Matrices up to 4x4, including the 0 x n and n x 0 shapes."""
    rows = draw(st.integers(min_value=0, max_value=4))
    cols = rows if square else draw(st.integers(min_value=0, max_value=4))
    entries = draw(st.lists(st.lists(small_entries, min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return RationalMatrix.from_rows(entries, cols=cols)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate_and_count(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for vec in basis:
        assert not any(map(any, m.mul(column(vec)).nums))


@given(small_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_is_exact_when_consistent(m, data):
    k = data.draw(st.integers(min_value=0, max_value=3))
    coeffs = data.draw(st.lists(st.lists(small_entries, min_size=k, max_size=k),
                                min_size=m.cols, max_size=m.cols))
    rhs = m.mul(RationalMatrix.from_rows(coeffs, cols=k))
    sol = solve(m, rhs)
    assert sol is not None
    assert (sol.rows, sol.cols) == (m.cols, k)
    assert m.mul(sol) == rhs


def _augmented(m, column):
    return RationalMatrix.from_rows([row + (b,) for row, b in zip(m.entries, column)],
                                    cols=m.cols + 1)


@given(small_matrices())
@settings(max_examples=80, deadline=None)
def test_span_basis_is_rref_of_the_same_row_space(m):
    basis = span_basis(m.entries, m.cols)
    leads = []
    for row in basis:
        lead = next(j for j, x in enumerate(row) if x)
        assert row[lead] == 1
        assert [other[lead] for other in basis].count(0) == len(basis) - 1
        leads.append(lead)
    assert leads == sorted(leads)
    r = rank(m)
    assert len(basis) == r
    assert rank(RationalMatrix.from_rows(basis, cols=m.cols)) == r
    assert rank(RationalMatrix.from_rows(list(m.entries) + basis, cols=m.cols)) == r


@given(small_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_is_none_exactly_when_rhs_raises_rank(m, data):
    rhs = data.draw(st.lists(small_entries, min_size=m.rows, max_size=m.rows))
    sol = solve(m, column(rhs))
    inconsistent = rank(_augmented(m, rhs)) > rank(m)
    assert (sol is None) == inconsistent
    if sol is not None:
        assert (sol.rows, sol.cols) == (m.cols, 1)
        assert m.mul(sol) == column(rhs)


@given(small_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_matrix_rhs_matches_column_by_column(m, data):
    # each column of B is either in the column space of M or drawn at random
    columns = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        if data.draw(st.booleans()):
            coeffs = data.draw(st.lists(small_entries, min_size=m.cols, max_size=m.cols))
            columns.append([row[0] for row in m.mul(column(coeffs)).entries])
        else:
            columns.append(data.draw(st.lists(small_entries, min_size=m.rows,
                                              max_size=m.rows)))
    rhs = RationalMatrix.from_rows(list(zip(*columns)) if columns else [()] * m.rows,
                                   cols=len(columns))
    singles = [solve(m, column(b)) for b in columns]
    sol = solve(m, rhs)
    assert (sol is None) == any(x is None for x in singles)
    if sol is not None:
        for j, x in enumerate(singles):
            assert tuple(row[j] for row in sol.entries) == tuple(row[0] for row in x.entries)


@given(small_matrices(square=True))
@settings(max_examples=80, deadline=None)
def test_invert_raises_exactly_when_singular(m):
    n = m.rows
    if rank(m) < n:
        with pytest.raises(ValueError):
            invert(m)
    else:
        inv = invert(m)
        assert m.mul(inv).entries == RationalMatrix.identity(n).entries
        assert inv.mul(m).entries == RationalMatrix.identity(n).entries


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
def test_every_entry_point_handles_empty_shapes(rows, cols):
    m = RationalMatrix.zero(rows, cols)
    assert rank(m) == 0
    assert rank_of_rows(m.entries) == 0
    assert rank_of_sparse_rows([{} for _ in range(rows)]) == 0
    identity = RationalMatrix.identity(cols).entries
    assert kernel_basis(m) == list(identity)
    assert kernel_matrix(m) == RationalMatrix.identity(cols)
    assert span_basis(m.entries, cols) == []
    for k in (0, 2):
        assert solve(m, RationalMatrix.zero(rows, k)) == RationalMatrix.zero(cols, k)
    if rows:
        assert solve(m, mat([[0, 0]] * (rows - 1) + [[0, 1]])) is None
    if rows == cols:
        assert invert(m).entries == ()
    else:
        with pytest.raises(ValueError):
            invert(m)


# A plain-Fraction reference for the integer storage: matrices as lists of rows.

def _ref_rref(rows, ncols):
    """Gauss-Jordan elimination over Fractions: {pivot column: RREF row}."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivot_cols = []
    for c in range(ncols):
        r0 = len(pivot_cols)
        k = next((i for i in range(r0, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r0], rows[k] = rows[k], rows[r0]
        rows[r0] = [x / rows[r0][c] for x in rows[r0]]
        for i in range(len(rows)):
            if i != r0 and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r0])]
        pivot_cols.append(c)
    return {c: rows[i] for i, c in enumerate(pivot_cols)}


def _ref_kernel(rows, ncols):
    pivots = _ref_rref(rows, ncols)
    basis = []
    for f in (f for f in range(ncols) if f not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c, row in pivots.items():
            vec[c] = -row[f]
        basis.append(tuple(vec))
    return basis


def _ref_solve(rows, rhs, n):
    """The RREF solution of M X = B with free variables 0, or None."""
    pivots = _ref_rref([list(a) + list(b) for a, b in zip(rows, rhs)], n + len(rhs[0]))
    if any(c >= n for c in pivots):
        return None
    width = len(rhs[0])
    return tuple(tuple(pivots[c][n:]) if c in pivots else (Fraction(0),) * width
                 for c in range(n))


def _assert_canonical(m):
    assert m.den > 0 and gcd(m.den, *(x for row in m.nums for x in row)) == 1
    assert all(type(x) is int for row in m.nums for x in row)


def _draw_rows(data, rows, cols):
    return data.draw(st.lists(st.lists(small_entries, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_integer_storage_matches_a_fraction_reference(data):
    r, k, c = (data.draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    a_rows, b_rows = _draw_rows(data, r, k), _draw_rows(data, k, c)
    rhs_rows = _draw_rows(data, r, c)
    a = RationalMatrix.from_rows(a_rows, cols=k)
    b = RationalMatrix.from_rows(b_rows, cols=c)
    rhs = RationalMatrix.from_rows(rhs_rows, cols=c)
    product = a.mul(b)
    solution = solve(a, rhs)
    for m in (a, b, rhs, product, a.transpose(), kernel_matrix(a), solution):
        if m is not None:
            _assert_canonical(m)
    assert a.entries == tuple(map(tuple, a_rows))
    assert product.entries == tuple(
        tuple(sum((x * b_rows[j][col] for j, x in enumerate(row)), Fraction(0))
              for col in range(c)) for row in a_rows)
    assert a.transpose().entries == tuple(tuple(row[j] for row in a_rows) for j in range(k))
    assert rank(a) == len(_ref_rref(a_rows, k))
    assert kernel_basis(a) == _ref_kernel(a_rows, k)
    assert kernel_matrix(a).transpose().entries == tuple(_ref_kernel(a_rows, k))
    want = _ref_solve(a_rows, rhs_rows, k) if r else ((Fraction(0),) * c,) * k
    assert (solution is None) == (want is None)
    if solution is not None:
        assert solution.entries == want


@given(small_matrices(square=True))
@settings(max_examples=80, deadline=None)
def test_invert_matches_a_fraction_reference(m):
    n = m.rows
    rows = [list(row) for row in m.entries]
    if rank(m) == n:
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        inv = invert(m)
        _assert_canonical(inv)
        assert inv.entries == (_ref_solve(rows, identity, n) if n else ())


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_equal_values_make_equal_matrices_with_equal_hashes(m):
    # Representation equality and the per-quiver memo keys rest on this
    again = RationalMatrix.from_rows(m.entries, cols=m.cols)
    assert again == m and hash(again) == hash(m)
    n = m.cols
    half = RationalMatrix.from_rows([[Fraction(int(i == j), 2) for j in range(n)]
                                     for i in range(n)], cols=n)
    two = RationalMatrix.from_rows([[2 * int(i == j) for j in range(n)] for i in range(n)], cols=n)
    back = m.mul(half).mul(two)
    assert back == m and hash(back) == hash(m)


def test_a_product_back_to_integers_equals_the_identity():
    prod = mat([[Fraction(1, 2)]]).mul(mat([[2]]))
    assert prod == RationalMatrix.identity(1) and hash(prod) == hash(RationalMatrix.identity(1))
    assert (prod.nums, prod.den) == (((1,),), 1)


@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
                min_size=0, max_size=3))
@settings(max_examples=40, deadline=None)
def test_integer_inputs_keep_denominator_one(rows):
    m = RationalMatrix.from_rows(rows, cols=3)
    assert m.den == 1 and m.nums == tuple(map(tuple, rows))
    assert m.transpose().den == 1 and m.transpose().mul(m).den == 1
