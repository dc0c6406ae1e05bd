"""Exact linear algebra over the rationals, on one elimination engine.

``RationalMatrix`` holds arbitrary-precision ``fractions.Fraction`` entries
(plain ``int`` entries are accepted and treated as rationals).  Every rank,
kernel, span, solve and inverse goes through ``_eliminate``: sparse,
fraction-free integer elimination with gcd reduction.  The rank functions use
its forward pass alone; the others add its back-substitution pass and read
the reduced row echelon form (RREF), the only place fractions are formed.
Pivoting is deterministic (first nonzero entry in column order) and the RREF
of a row space is unique, so kernel bases and particular solutions are
reproducible.  No floating point is used anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix with exact rational entries."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: Optional[int] = None) -> "RationalMatrix":
        data = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)
                     for row in rows)
        if data:
            ncols = len(data[0])
        elif cols is not None:
            ncols = cols
        else:
            ncols = 0
        return RationalMatrix(len(data), ncols, data)

    @staticmethod
    def zero(rows: int, cols: int) -> "RationalMatrix":
        z = Fraction(0)
        return RationalMatrix(rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        one, z = Fraction(1), Fraction(0)
        return RationalMatrix(n, n, tuple(tuple(one if i == j else z for j in range(n)) for i in range(n)))

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows,
                              tuple(tuple(self.entries[i][j] for i in range(self.rows))
                                    for j in range(self.cols)))

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        zero = Fraction(0)
        out = []
        for i in range(self.rows):
            row_i = self.entries[i]
            acc = [zero] * other.cols
            for k in range(self.cols):
                v = row_i[k]
                if v:
                    other_row = other.entries[k]
                    for j in range(other.cols):
                        w = other_row[j]
                        if w:
                            acc[j] += v * w
            out.append(tuple(acc))
        return RationalMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        v = [Fraction(x) for x in vec]
        return tuple(sum((row[k] * v[k] for k in range(self.cols)), Fraction(0))
                     for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


# ---------------------------------------------------------------------------
# the elimination engine
# ---------------------------------------------------------------------------

_ZERO, _ONE = Fraction(0), Fraction(1)


def _eliminate(rows: Iterable[dict], reduced: bool = False) -> dict[int, dict[int, int]]:
    """Fraction-free sparse row reduction; returns {pivot column: pivot row}.

    ``rows`` are sparse ``{column: rational}`` (``int`` or ``Fraction``, zeros
    allowed).  Each row is scaled to integers by the lcm of its denominators,
    then reduced against the pivot rows in increasing column order, and it
    becomes the pivot row, divided by the gcd of its entries, for its leading
    column.  The forward pass alone gives the rank.  With ``reduced``, a
    back-substitution pass clears each pivot column from the other pivot rows,
    so pivot row ``c`` divided by its entry at ``c`` is the RREF row with
    pivot ``c``.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        mult = 1
        for v in row.values():
            if v.denominator != 1:
                mult = lcm(mult, v.denominator)
        current = {j: v.numerator * (mult // v.denominator) for j, v in row.items() if v}
        while current:
            c = min(current)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = _primitive(current)
                break
            current = _cancel(current, pivot, c)
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
    """The integer combination of ``row`` and ``pivot`` that is 0 at ``c``."""
    pv, rv = pivot[c], row[c]
    g = gcd(pv, rv)
    mult_row, mult_piv = pv // g, rv // g
    merged = {j: v * mult_row for j, v in row.items()}
    for j, v in pivot.items():
        val = merged.get(j, 0) - v * mult_piv
        if val:
            merged[j] = val
        else:
            merged.pop(j, None)
    return merged


def _rref_entries(row: dict[int, int], c: int, columns: Iterable[int]) -> tuple[Fraction, ...]:
    """Entries at ``columns`` of the RREF row read from pivot row ``c``."""
    p = row[c]
    return tuple(Fraction(row[j], p) if j in row else _ZERO for j in columns)


def rank(matrix: RationalMatrix) -> int:
    """Rank over the rationals."""
    return len(_eliminate(dict(enumerate(row)) for row in matrix.entries))


def rank_of_rows(raw_rows: Sequence[Sequence], ncols: int) -> int:
    """Rank of a matrix given as dense rows of length ``ncols``."""
    return len(_eliminate(dict(enumerate(row)) for row in raw_rows))


def rank_of_sparse_rows(sparse_rows: Sequence[dict[int, Fraction]]) -> int:
    """Rank of a matrix given as sparse rows {column: rational value}."""
    return len(_eliminate(sparse_rows))


def kernel_basis(matrix: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of the right null space {v : M v = 0}.

    The basis comes from the reduced row echelon form: one vector per free
    column, with a 1 in the free position.  Basis size is cols - rank.
    """
    return kernel_basis_of_rows([dict(enumerate(row)) for row in matrix.entries], matrix.cols)


def kernel_basis_of_rows(sparse_rows: Sequence[dict[int, Fraction]],
                         ncols: int) -> list[tuple[Fraction, ...]]:
    """``kernel_basis`` of the matrix with sparse rows {column: rational value}."""
    pivots = _eliminate(sparse_rows, reduced=True)
    free = [f for f in range(ncols) if f not in pivots]
    position = {f: i for i, f in enumerate(free)}
    basis = [[_ZERO] * ncols for _ in free]
    for i, f in enumerate(free):
        basis[i][f] = _ONE
    for c, row in pivots.items():
        p = row[c]
        for j, v in row.items():
            if j != c:
                basis[position[j]][c] = Fraction(-v, p)
    return [tuple(v) for v in basis]


def span_basis(vectors: Sequence[Sequence], length: int) -> list[tuple[Fraction, ...]]:
    """Deterministic (RREF) basis of the span of the given vectors."""
    pivots = _eliminate((dict(enumerate(v)) for v in vectors), reduced=True)
    return [_rref_entries(row, c, range(length)) for c, row in sorted(pivots.items())]


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
    pivots = _eliminate((dict(enumerate(row + b)) for row, b in zip(matrix.entries, rhs.entries)),
                        reduced=True)
    if any(c >= n for c in pivots):
        return None
    zero_row = (_ZERO,) * rhs.cols
    return RationalMatrix(n, rhs.cols, tuple(
        _rref_entries(pivots[c], c, range(n, n + rhs.cols)) if c in pivots else zero_row
        for c in range(n)))


def invert(matrix: RationalMatrix) -> RationalMatrix:
    """Exact inverse of a square matrix; raises ValueError when singular."""
    n = matrix.rows
    if n != matrix.cols:
        raise ValueError("only square matrices can be inverted")
    pivots = _eliminate(({**dict(enumerate(row)), n + i: 1}
                         for i, row in enumerate(matrix.entries)), reduced=True)
    if set(pivots) != set(range(n)):
        raise ValueError("matrix is singular")
    return RationalMatrix(n, n, tuple(_rref_entries(pivots[i], i, range(n, 2 * n))
                                      for i in range(n)))


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
