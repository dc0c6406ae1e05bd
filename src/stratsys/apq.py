"""Simple regular representations and stable-tube points over the canonical
Euclidean cycle quiver with arm lengths p <= q.

The regular part of the module category splits into a tube of rank p, a tube
of rank q, and a rank-1 tube for every nonzero scalar.  Mouth modules are
built with explicit matrices; higher tube points are realized as iterated
non-split extensions along the ray, so their dimension vectors are the sums
of consecutive mouth dimension vectors.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional

from .quiver import DimVector, Quiver, canonical_apq
from .record import Frozen
from .reps import Representation, make_rep, nonsplit_extension, simple


class TubeLabel(Frozen):
    """One of the tube families: "infty" (rank p), "zero" (rank q), or
    "lambda" with a nonzero rational parameter (rank 1)."""

    __slots__ = ("kind", "lam", "_hash")  # the hash is kept, as ``Quiver`` keeps its own

    def __init__(self, kind: str, lam: Optional[Fraction] = None):
        if kind not in ("infty", "zero", "lambda"):
            raise ValueError(f"unknown tube kind {kind!r}")
        if kind == "lambda":
            if lam is None or lam == 0:
                raise ValueError("lambda tube needs a nonzero parameter")
        elif lam is not None:
            raise ValueError("only lambda tubes carry a parameter")
        self._init(kind, lam, hash((kind, lam)))

    def __hash__(self) -> int:
        return self._hash

    def short(self) -> str:
        if self.kind == "infty":
            return "inf"
        if self.kind == "zero":
            return "0"
        return str(self.lam)


TUBE_INFTY = TubeLabel("infty")
TUBE_ZERO = TubeLabel("zero")


def tube_lambda(lam) -> TubeLabel:
    return TubeLabel("lambda", Fraction(lam))


class TubePoint(Frozen):
    """The module with regular socle at mouth position ``index`` and regular
    length ``level`` inside the given tube."""

    __slots__ = ("tube", "index", "level", "_hash")

    def __init__(self, tube: TubeLabel, index: int, level: int):
        if index < 1 or level < 1:
            raise ValueError("mouth index and level are 1-based")
        self._init(tube, index, level, hash((tube, index, level)))

    def __hash__(self) -> int:
        return self._hash


def tube_rank(p: int, q: int, label: TubeLabel) -> int:
    if label.kind == "infty":
        return p
    if label.kind == "zero":
        return q
    return 1


def mouth_dim_vector(p: int, q: int, label: TubeLabel, index: int) -> DimVector:
    """Dimension vector of the index-th mouth module (no matrices needed)."""
    n = p + q
    rank = tube_rank(p, q, label)
    if not 1 <= index <= rank:
        raise ValueError(f"mouth index {index} out of range for rank {rank}")
    if label.kind == "infty":
        if index <= p - 1:
            return tuple(1 if v == index else 0 for v in range(n))
        return tuple(1 if (v == 0 or v >= p) else 0 for v in range(n))
    if label.kind == "zero":
        if index <= q - 1:
            return tuple(1 if v == p + index - 1 else 0 for v in range(n))
        return tuple(1 if (v <= p - 1 or v == n - 1) else 0 for v in range(n))
    return tuple(1 for _ in range(n))


def tube_point_dim_vector(p: int, q: int, point: TubePoint) -> DimVector:
    """The sum of the ``level`` mouth vectors from ``index`` on, cyclically:
    each whole turn of the tube adds the sum of all ``rank`` of them."""
    rank = tube_rank(p, q, point.tube)
    turns, rest = divmod(point.level, rank)
    total = [0] * (p + q)
    for k in range(rank if turns else rest):
        idx = (point.index - 1 + k) % rank + 1
        weight = turns + (k < rest)
        for j, d in enumerate(mouth_dim_vector(p, q, point.tube, idx)):
            total[j] += weight * d
    return tuple(total)


class ApqAlgebra:
    """Context object tying (p, q) to its canonical quiver and tube catalogue.

    Get one from ``apq_algebra``, which keeps one per (p, q): the memos on
    ``simple_regular``, ``tube_point`` and ``tube_point_dims`` key on the
    instance and keep it alive."""

    def __init__(self, p: int, q: int):
        if not (1 <= p <= q):
            raise ValueError("need 1 <= p <= q")
        self.p = p
        self.q = q
        self.quiver = canonical_apq(p, q)

    # -- arrows of the canonical shape --------------------------------------

    def _upper_source_arrow(self) -> str:
        p, q = self.p, self.q
        target = p - 1 if p >= 2 else 0
        for a in self.quiver.arrows:
            if a.src == p + q - 1 and a.tgt == target:
                return a.label
        raise AssertionError("canonical quiver lost its upper source arrow")

    def _lambda_arrow(self) -> str:
        """Arrow into the sink along the upper route; carries the parameter."""
        if self.p >= 2:
            for a in self.quiver.arrows:
                if a.src == 1 and a.tgt == 0:
                    return a.label
            raise AssertionError("canonical quiver lost its 1 -> 0 arrow")
        return self._upper_source_arrow()

    # -- mouth modules -------------------------------------------------------

    def tube_rank(self, label: TubeLabel) -> int:
        return tube_rank(self.p, self.q, label)

    @functools.cache
    def simple_regular(self, label: TubeLabel, index: int) -> Representation:
        """The index-th mouth module of the tube (explicit matrices)."""
        p, q = self.p, self.q
        rank = self.tube_rank(label)
        if not 1 <= index <= rank:
            raise ValueError(f"mouth index {index} out of range for rank {rank}")
        if label.kind == "infty" and index <= p - 1:
            return simple(self.quiver, index)
        if label.kind == "zero" and index <= q - 1:
            return simple(self.quiver, p + index - 1)
        return self._big_mouth(label)

    def _big_mouth(self, label: TubeLabel) -> Representation:
        p, q = self.p, self.q
        dims = mouth_dim_vector(p, q, label, self.tube_rank(label))
        quiv = self.quiver
        maps: dict[str, list[list[Fraction]]] = {}
        special_zero: set[str] = set()
        special: dict[str, Fraction] = {}
        if label.kind == "infty" and p == 1:
            special_zero.add(self._upper_source_arrow())
        if label.kind == "zero" and q == 1:
            # p = q = 1: the lower route is the parallel source arrow
            for a in quiv.arrows:
                if a.label != self._upper_source_arrow():
                    special_zero.add(a.label)
        if label.kind == "lambda":
            special[self._lambda_arrow()] = Fraction(label.lam)
        for a in quiv.arrows:
            ds = dims[quiv.index(a.src)]
            dt = dims[quiv.index(a.tgt)]
            if ds == 0 or dt == 0:
                continue
            if a.label in special_zero:
                maps[a.label] = [[Fraction(0)]]
            elif a.label in special:
                maps[a.label] = [[special[a.label]]]
            else:
                maps[a.label] = [[Fraction(1)]]
        return make_rep(quiv, dims, maps)

    # -- points higher up the ray --------------------------------------------

    @functools.cache
    def tube_point_dims(self, point: TubePoint) -> DimVector:
        return tube_point_dim_vector(self.p, self.q, point)

    @functools.cache
    def tube_point(self, point: TubePoint) -> Representation:
        """Realize E_i[level] as an iterated non-split extension along the ray."""
        rank = self.tube_rank(point.tube)
        rep = self.simple_regular(point.tube, point.index)
        for k in range(1, point.level):
            top_index = (point.index - 1 + k) % rank + 1
            top = self.simple_regular(point.tube, top_index)
            rep = nonsplit_extension(top, rep)
        if rep.dims != self.tube_point_dims(point):
            raise ArithmeticError("tube point has unexpected dimension vector")
        return rep

    def cone(self, point: TubePoint) -> frozenset[tuple[int, int]]:
        """Cone below the point, as (mouth index, level) coordinates."""
        rank = self.tube_rank(point.tube)
        cells = set()
        for a in range(point.level):
            for b in range(1, point.level - a + 1):
                cells.add(((point.index - 1 + a) % rank + 1, b))
        return frozenset(cells)


@functools.cache
def apq_algebra(p: int, q: int) -> ApqAlgebra:
    return ApqAlgebra(p, q)


def recognize_apq(q: Quiver) -> Optional[tuple[int, int]]:
    """Return (p, q) when the quiver is exactly a canonical cycle, else None."""
    sinks = [v for v in q.vertices if not q.arrows_out(v)]
    sources = [v for v in q.vertices if not q.arrows_in(v)]
    if len(sinks) != 1 or len(sources) != 1 or len(q.arrows) != q.n:
        return None
    for p in range(1, q.n):
        qq = q.n - p
        if p > qq:
            break
        candidate = canonical_apq(p, qq)
        if candidate.vertices == q.vertices:
            mine = sorted((a.src, a.tgt) for a in q.arrows)
            theirs = sorted((a.src, a.tgt) for a in candidate.arrows)
            if mine == theirs:
                return (p, qq)
    return None
