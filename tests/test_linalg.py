from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from stratsys.linalg import (RationalMatrix, format_rational, invert,
                             kernel_basis, kernel_basis_of_rows, parse_rational,
                             rank, rank_of_rows, rank_of_sparse_rows, solve,
                             span_basis)


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
        assert all(x == 0 for x in m.apply(vec))


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
            columns.append(m.apply(coeffs))
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
    assert rank_of_rows(m.entries, cols) == 0
    assert rank_of_sparse_rows([{} for _ in range(rows)]) == 0
    identity = RationalMatrix.identity(cols).entries
    assert kernel_basis(m) == list(identity)
    assert kernel_basis_of_rows([{} for _ in range(rows)], cols) == list(identity)
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
