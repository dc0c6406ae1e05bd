"""Exact linear algebra over the rationals, on one elimination engine.

``RationalMatrix`` stores integer numerators ``nums`` over one positive
common denominator ``den``, in lowest terms, so that its products,
transposes and eliminations run on Python integers and two matrices with
equal values are equal and hash equally.  ``entries`` is a read-only view of
the values as ``fractions.Fraction``, for output and tests.  Every rank,
kernel, span, solve and inverse goes through ``_eliminate``: sparse,
fraction-free integer elimination with gcd reduction.  The rank functions use
its forward pass alone; the others add its back-substitution pass and read
the reduced row echelon form (RREF) over one denominator.  Pivoting is
deterministic (first nonzero entry in column order) and the RREF of a row
space is unique, so kernel bases and particular solutions are reproducible.
No floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Rational
from operator import add, itemgetter
from typing import Iterable, Optional, Sequence

from .record import Frozen


class RationalMatrix(Frozen):
    """Immutable dense rational matrix: entry (i, j) is nums[i][j] / den,
    with den > 0 and gcd(den, *nums) == 1 (an integer matrix has den 1)."""

    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, rows: int, cols: int, nums: tuple[tuple[int, ...], ...], den: int):
        if rows < 0 or cols < 0 or den < 1:
            raise ValueError("matrix dimensions must be nonnegative and den positive")
        if len(nums) != rows:
            raise ValueError("row count mismatch")
        for row in nums:
            if len(row) != cols:
                raise ValueError("column count mismatch")
        # matrices are built by the ten thousand: no loop, as in ``_init``
        set_rows, set_cols, set_nums, set_den = self._setters
        set_rows(self, rows)
        set_cols(self, cols)
        set_nums(self, nums)
        set_den(self, den)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: Optional[int] = None) -> "RationalMatrix":
        """The matrix with the given ``int`` or ``Fraction`` rows; ``cols``
        is the width when there are no rows."""
        data = [tuple(row) for row in rows]
        den = lcm(*(x.denominator for row in data for x in row))
        nums = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in data)
        ncols = len(nums[0]) if nums else cols or 0
        return RationalMatrix(len(nums), ncols, nums, den)

    @staticmethod
    def from_nums(nums: Sequence[Sequence[int]], den: int, cols: int) -> "RationalMatrix":
        """nums / den for integer rows of length ``cols`` and den > 0, reduced
        to lowest terms."""
        g = gcd(den, *chain.from_iterable(nums)) if den != 1 else 1
        if g == 1:
            return RationalMatrix(len(nums), cols, tuple(map(tuple, nums)), den)
        return RationalMatrix(len(nums), cols, tuple(tuple(x // g for x in row) for row in nums),
                              den // g)

    @staticmethod
    def zero(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix(rows, cols, ((0,) * cols,) * rows, 1)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix.from_nums([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as ``Fraction``s, a read-only view for output."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.nums)

    def transpose(self) -> "RationalMatrix":
        nums = tuple(zip(*self.nums)) if self.rows else ((),) * self.cols
        return RationalMatrix(self.cols, self.rows, nums, self.den)

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if not (self.cols and other.cols):
            return RationalMatrix.zero(self.rows, other.cols)
        nums = []
        for row in self.nums:
            acc = (0,) * other.cols
            for v, other_row in zip(row, other.nums):
                if v:  # a sum of the rows of other, skipping zeros
                    acc = tuple(map(add, acc, map(v.__mul__, other_row)))
            nums.append(acc)
        return RationalMatrix.from_nums(nums, self.den * other.den, other.cols)


# ---------------------------------------------------------------------------
# the elimination engine
# ---------------------------------------------------------------------------

_INT = {int}
_VALUE = itemgetter(1)


def _eliminate(rows: Iterable[Iterable[tuple[int, Rational]]],
               reduced: bool = False) -> dict[int, dict[int, int]]:
    """Fraction-free sparse row reduction; returns {pivot column: pivot row}.

    Each row is given by its (column, rational) pairs, zeros allowed.  An
    integer row is taken as it is; a row with ``Fraction`` entries is first
    scaled to integers by the lcm of its denominators.  Each row is reduced
    against the pivot rows in increasing column order, and it becomes the
    pivot row, divided by the gcd of its entries, for its leading column, so
    a positive multiple of a row gives the same pivot rows.  The forward pass
    alone gives the rank.  With ``reduced``, a back-substitution pass clears
    each pivot column from the other pivot rows, so pivot row ``c`` divided
    by its entry at ``c`` is the RREF row with pivot ``c``.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        current = dict(filter(_VALUE, row))
        if not current:
            continue
        if not _INT.issuperset(map(type, current.values())):
            mult = lcm(*(v.denominator for v in current.values()))
            current = {j: v.numerator * (mult // v.denominator) for j, v in current.items()}
        while current:
            c = min(current)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = _primitive(current)
                break
            _cancel(current, pivot, c)
    if reduced:
        for c in sorted(pivots, reverse=True):
            pivot = pivots[c]
            for r, row in pivots.items():
                if r < c and c in row:
                    pivots[r] = _primitive(_cancel(row, pivot, c))
    return pivots


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _cancel(row: dict[int, int], pivot: dict[int, int], c: int) -> dict[int, int]:
    """Replace ``row``, in place, by the integer combination of ``row`` and
    ``pivot`` that is 0 at ``c``; returns ``row``."""
    pv, rv = pivot[c], row[c]
    g = gcd(pv, rv)
    mult_row, mult_piv = pv // g, rv // g
    if mult_row != 1:
        for j, v in row.items():
            row[j] = v * mult_row
    get = row.get
    for j, v in pivot.items():
        val = get(j, 0) - v * mult_piv
        if val:
            row[j] = val
        else:
            del row[j]
    return row


def _augmented(left: RationalMatrix, right: RationalMatrix) -> Iterable[Iterable]:
    """The rows of [left | right] as (column, integer) pairs, each row a
    positive multiple of the rational row."""
    den = lcm(left.den, right.den)
    scale_l, scale_r, n = den // left.den, den // right.den, left.cols
    return (chain(enumerate(map(scale_l.__mul__, a)), enumerate(map(scale_r.__mul__, b), n))
            for a, b in zip(left.nums, right.nums))


def _rref_right(pivots: dict[int, dict[int, int]], n: int, width: int) -> RationalMatrix:
    """Rows 0..n-1 of an RREF whose pivot columns are all below n, at the
    ``width`` columns after the first n, over one denominator; row c is zero
    when c is not a pivot column."""
    den = lcm(*(row[c] for c, row in pivots.items()))
    nums = [[0] * width for _ in range(n)]
    for c, row in pivots.items():
        scale = den // row[c]
        for j, v in row.items():
            if j >= n:
                nums[c][j - n] = v * scale
    return RationalMatrix.from_nums(nums, den, width)


def rank(matrix: RationalMatrix) -> int:
    """Rank over the rationals."""
    return len(_eliminate(map(enumerate, matrix.nums)))


def rank_of_rows(raw_rows: Sequence[Sequence]) -> int:
    """Rank of a matrix given as dense rows."""
    return len(_eliminate(map(enumerate, raw_rows)))


def rank_of_sparse_rows(sparse_rows: Sequence[dict[int, Fraction]]) -> int:
    """Rank of a matrix given as sparse rows {column: rational value}."""
    return len(_eliminate(row.items() for row in sparse_rows))


def pivot_columns(raw_rows: Iterable[Sequence]) -> set[int]:
    """The leading columns of a row echelon form of the given dense rows."""
    return set(_eliminate(map(enumerate, raw_rows)))


def _kernel(pivots: dict[int, dict[int, int]], ncols: int
            ) -> tuple[RationalMatrix, list[int]]:
    """The kernel basis of an RREF, one column per free column with a 1 in
    the free position, as an ncols x (ncols - rank) matrix, and the free
    columns, ascending.  A pivot row has no entry left of its pivot, so the
    1 is the last nonzero entry of its column."""
    free = [f for f in range(ncols) if f not in pivots]
    position = {f: i for i, f in enumerate(free)}
    den = lcm(*(row[c] for c, row in pivots.items()))
    nums = [[0] * len(free) for _ in range(ncols)]
    for i, f in enumerate(free):
        nums[f][i] = den
    for c, row in pivots.items():
        scale = den // row[c]
        for j, v in row.items():
            if j != c:
                nums[c][position[j]] = -v * scale
    return RationalMatrix.from_nums(nums, den, len(free)), free


def _kernel_of(matrix: RationalMatrix) -> tuple[RationalMatrix, list[int]]:
    """``kernel_matrix`` of ``matrix`` and its free columns (see ``_kernel``)."""
    return _kernel(_eliminate(map(enumerate, matrix.nums), reduced=True), matrix.cols)


def kernel_matrix(matrix: RationalMatrix) -> RationalMatrix:
    """The ``kernel_basis`` vectors as the columns of one matrix."""
    return _kernel_of(matrix)[0]


def kernel_basis(matrix: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of the right null space {v : M v = 0}.

    The basis comes from the reduced row echelon form: one vector per free
    column, with a 1 in the free position.  Basis size is cols - rank.
    """
    return list(kernel_matrix(matrix).transpose().entries)


def span_basis(vectors: Sequence[Sequence], length: int) -> list[tuple[Fraction, ...]]:
    """Deterministic (RREF) basis of the span of the given vectors."""
    pivots = _eliminate(map(enumerate, vectors), reduced=True)
    return [tuple(Fraction(row.get(j, 0), row[c]) for j in range(length))
            for c, row in sorted(pivots.items())]


def solve(matrix: RationalMatrix, rhs: RationalMatrix) -> Optional[RationalMatrix]:
    """One exact solution X of M X = B, or None when some column of B lies
    outside the column space of M.

    One elimination over the rows of [M | B]; free variables are set to 0.
    The RREF of [M | B] restricted to M's columns is the RREF of M, so column
    j of X is the solution of M x = B[:, j] on its own.
    """
    if rhs.rows != matrix.rows:
        raise ValueError("right-hand side row count mismatch")
    n = matrix.cols
    pivots = _eliminate(_augmented(matrix, rhs), reduced=True)
    if any(c >= n for c in pivots):
        return None
    return _rref_right(pivots, n, rhs.cols)


def invert(matrix: RationalMatrix) -> RationalMatrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    n = matrix.rows
    if n != matrix.cols:
        raise ValueError("only square matrices can be inverted")
    pivots = _eliminate(_augmented(matrix, RationalMatrix.identity(n)), reduced=True)
    if set(pivots) != set(range(n)):
        raise ValueError("matrix is singular")
    return _rref_right(pivots, n, n)


def format_rational(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(value) -> Fraction:
    """Parse an integer (not a bool) or a string "p" or "p/q" with q != 0;
    anything else, floats included, raises ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and re.fullmatch(r"[+-]?\d+(/0*[1-9]\d*)?", value):
        return Fraction(value)
    raise ValueError(f'expected an integer or a "p/q" string with q != 0, got {value!r}')
