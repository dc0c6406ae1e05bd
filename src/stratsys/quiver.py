"""Finite acyclic quivers, their numerical invariants and their cache context.

A quiver is a finite directed multigraph with integer vertex labels and
string arrow labels.  All operations report caller-chosen labels, never
internal indices.  Dimension vectors are plain tuples of ints, ordered by
the quiver's vertex list.

Each quiver instance is compiled once on construction (hash, vertex index,
arrow index pairs), and every per-quiver memo of the package lives in the one
``QuiverContext`` shared by all equal quivers, the braid walk over complete
exceptional sequences (``BraidWalk``) among them.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Any, Optional, Sequence

from .linalg import RationalMatrix, kernel_basis
from .report import CheckReport

DimVector = tuple[int, ...]
Path = tuple[str, ...]  # arrow labels in traversal order (first arrow first)

WALK_ENTRY_BOUND = 40  # the largest entry of a dimension vector the braid walk visits
WALK_STATES = 20_000   # the complete exceptional sequences the braid walk visits per quiver


@dataclass(frozen=True)
class Arrow:
    src: int
    tgt: int
    label: str


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph; expected to be acyclic and connected."""

    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]
    # compiled once per instance, no part of eq, repr or hash
    _hash: int = field(init=False, repr=False, compare=False)
    _index: dict[int, int] = field(init=False, repr=False, compare=False)
    _arrow_pairs: Optional[tuple[tuple[int, int], ...]] = field(
        init=False, repr=False, compare=False)
    _context: Optional["QuiverContext"] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # never raises on a quiver that ``validate`` rejects: a duplicate
        # vertex keeps its first position (as tuple.index does), and an
        # arrow endpoint outside the vertices leaves the pairs unset
        index: dict[int, int] = {}
        for i, v in enumerate(self.vertices):
            index.setdefault(v, i)
        pairs = None
        if all(a.src in index and a.tgt in index for a in self.arrows):
            pairs = tuple((index[a.src], index[a.tgt]) for a in self.arrows)
        object.__setattr__(self, "_hash", hash((self.vertices, self.arrows)))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_arrow_pairs", pairs)
        object.__setattr__(self, "_context", None)

    def __hash__(self) -> int:
        return self._hash

    @property
    def context(self) -> "QuiverContext":
        """The cache context of this quiver's value (see ``QuiverContext``)."""
        ctx = self._context
        if ctx is None:
            with _CONTEXTS_LOCK:
                ctx = _CONTEXTS.get(self)
                if ctx is None:
                    ctx = _CONTEXTS[self] = QuiverContext(self)
            object.__setattr__(self, "_context", ctx)
        return ctx

    @staticmethod
    def make(vertices: Sequence[int], arrows: Sequence[tuple]) -> "Quiver":
        arrs = []
        for a in arrows:
            if isinstance(a, Arrow):
                arrs.append(a)
            else:
                src, tgt, label = a
                arrs.append(Arrow(int(src), int(tgt), str(label)))
        return Quiver(tuple(int(v) for v in vertices), tuple(arrs))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, vertex: int) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise ValueError(f"{vertex!r} is not a vertex") from None

    def arrows_out(self, vertex: int) -> list[Arrow]:
        return [a for a in self.arrows if a.src == vertex]

    def arrows_in(self, vertex: int) -> list[Arrow]:
        return [a for a in self.arrows if a.tgt == vertex]

    def arrow_by_label(self, label: str) -> Arrow:
        for a in self.arrows:
            if a.label == label:
                return a
        raise KeyError(f"no arrow labelled {label!r}")

    def opposite(self) -> "Quiver":
        """Reverse every arrow, keeping labels; duality sends reps here."""
        return Quiver(self.vertices, tuple(Arrow(a.tgt, a.src, a.label) for a in self.arrows))

    def zero_vector(self) -> DimVector:
        return tuple(0 for _ in self.vertices)

    def unit_vector(self, vertex: int) -> DimVector:
        i = self.index(vertex)
        return tuple(1 if j == i else 0 for j in range(self.n))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"src": a.src, "tgt": a.tgt, "label": a.label} for a in self.arrows],
        }

    @staticmethod
    def from_json(data: dict) -> "Quiver":
        return Quiver.make(data["vertices"],
                           [(a["src"], a["tgt"], a["label"]) for a in data["arrows"]])


# ---------------------------------------------------------------------------
# the cache context
# ---------------------------------------------------------------------------

class QuiverContext:
    """Every memo of one quiver value, in one place.

    ``Quiver.context`` looks the context up by value (hash and equality,
    never ``id()``), so equal quivers built apart share it, and caches it on
    the instance.  The derived invariants are computed on first use: the
    projective and injective dimension vectors (the rows and columns of the
    path-count matrix) with their inverse maps, the Coxeter transform, the
    path table and ``path_index``, each path's position in its table entry
    (``reps`` applies an arrow map of P_v or I_v as a row gather read off
    it, and builds the Nakayama step of tau from it with no matrix
    product).  The upper layers keep their memos in plain dicts:
    ``orbit_dims`` and ``orbit_reps`` (``modules``: the tau-orbit dimension
    vectors, each orbit a tuple replaced whole when it grows, and the
    materialized orbit modules), ``root_reps`` (``modules`` and
    ``classifier``: the exceptional module built along the braid walk per
    ``ROOT`` dimension vector, written by ``classifier`` alone), ``hom_ext``
    (``modules``: one checked (dim Hom, dim Ext^1) entry per pedigreed pair,
    written by ``pair_hom_ext`` alone), ``projectives`` and ``injectives``
    (``reps``: P_v and I_v per vertex), and ``walk``, the quiver's
    ``BraidWalk``, which guards itself.  The search kernel keeps no memo
    here: a search holds its facts by item index and asks ``hom_ext`` for
    each once.  A module's minimal presentation is no memo of the context:
    it is kept on the module (``reps.minimal_presentation``) and dies with
    it.  ``hits`` and ``misses`` count the lookups in ``hom_ext`` and
    ``orbit_reps``.

    Thread guarantees: one context per value (creation is locked), memo
    values are immutable and a function of their key, and a memo is only
    ever replaced whole, so a concurrent reader sees a complete value or a
    miss.  Racing misses compute the same value twice; the counts are exact
    in single-threaded runs only.
    """

    COUNTED = ("hom_ext", "orbit_reps")
    DERIVED = ("proj_dims", "inj_dims", "proj_vertex", "inj_vertex",
               "coxeter", "paths", "path_index")

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.clear()

    def clear(self) -> None:
        """Drop every memo and zero the counts; the context stays the one
        of its quiver value."""
        for name in self.DERIVED:
            self.__dict__.pop(name, None)
        self.orbit_dims: dict[tuple[str, int], tuple[DimVector, ...]] = {}
        self.orbit_reps: dict[tuple[str, int, int], Any] = {}
        self.root_reps: dict[DimVector, Any] = {}
        self.hom_ext: dict[tuple, tuple[int, int]] = {}
        self.projectives: dict[int, Any] = {}
        self.injectives: dict[int, Any] = {}
        self.walk = BraidWalk(self.quiver)
        self.hits = dict.fromkeys(self.COUNTED, 0)
        self.misses = dict.fromkeys(self.COUNTED, 0)

    @cached_property
    def proj_dims(self) -> tuple[DimVector, ...]:
        """dim P_v for each vertex, in vertex order: the rows of the
        path-count matrix."""
        return _path_count_matrix(self.quiver)

    @cached_property
    def inj_dims(self) -> tuple[DimVector, ...]:
        """dim I_v for each vertex, in vertex order: the columns of the
        path-count matrix."""
        return tuple(zip(*self.proj_dims))

    @cached_property
    def proj_vertex(self) -> dict[DimVector, int]:
        return dict(zip(self.proj_dims, self.quiver.vertices))

    @cached_property
    def inj_vertex(self) -> dict[DimVector, int]:
        return dict(zip(self.inj_dims, self.quiver.vertices))

    @cached_property
    def coxeter(self) -> "CoxeterTransform":
        return coxeter_transform(self.quiver)

    @cached_property
    def paths(self) -> dict[tuple[int, int], tuple[Path, ...]]:
        """All directed paths (u, v) -> ordered tuple of label sequences.

        Paths are listed in lexicographic label order with prefixes first,
        which fixes the bases of projectives and injectives deterministically.
        """
        q = self.quiver
        table: dict[tuple[int, int], list[Path]] = {(u, v): [] for u in q.vertices
                                                     for v in q.vertices}

        def extend(start: int, current: int, labels: list[str]) -> None:
            table[(start, current)].append(tuple(labels))
            for a in sorted(q.arrows_out(current), key=lambda ar: ar.label):
                labels.append(a.label)
                extend(start, a.tgt, labels)
                labels.pop()

        for u in q.vertices:
            extend(u, u, [])
        return {key: tuple(sorted(val)) for key, val in table.items()}

    @cached_property
    def path_index(self) -> dict[tuple[int, int], dict[Path, int]]:
        """(u, v) -> {path: its position in ``paths[(u, v)]``}: the basis
        index of a path u ~> v in P_u at v and in I_v at u."""
        return {key: {p: k for k, p in enumerate(val)} for key, val in self.paths.items()}


class BraidWalk:
    """A lazy breadth-first walk of braid moves over the dimension vectors
    of complete exceptional sequences.

    It starts from the simples, ordered so that every arrow points forward:
    Ext^1(S_s, S_t) is nonzero only for an arrow s -> t, so that order is an
    exceptional sequence.  The braid group acts transitively on complete
    exceptional sequences (Crawley-Boevey, "Exceptional sequences of
    representations of quivers", 1993), and a move needs only the dimension
    vectors: at an adjacent pair (e, f) with k = <e, f>, the left move gives
    (+-(f - k e), e) and the right move (f, +-(e - k f)), the sign making the
    vector positive (``reps.mutate`` builds the modules).

    ``recipes`` maps each vector reached to the move that first gave it,
    ("L" or "R", e, f) with (e, f) the pair it came from, or None for a
    simple; ``pairs`` holds each two vectors, ascending, that sit in one
    reached sequence.  Both only grow.  The walk visits the sequences whose
    entries are at most ``WALK_ENTRY_BOUND``, at most ``WALK_STATES`` of them
    per quiver, and goes only as far as a question needs; it runs under its
    own lock.  Over a cyclic quiver it reaches nothing.
    """

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.recipes: dict[DimVector, Optional[tuple[str, DimVector, DimVector]]] = {}
        self.pairs: set[tuple[DimVector, DimVector]] = set()
        self._lock = threading.Lock()
        self._seen: Optional[set[tuple[DimVector, ...]]] = None  # None: not started
        self._queue: deque[tuple[DimVector, ...]] = deque()

    def reached(self, dims: DimVector) -> bool:
        """Whether the walk reaches ``dims``, walking on until it does or
        runs out of sequences; once its queue or its budget is spent, it
        answers at once."""
        if max(dims, default=0) > WALK_ENTRY_BOUND:
            return False
        with self._lock:
            return self._walk_until(lambda: dims in self.recipes)

    def paired(self, u: DimVector, v: DimVector) -> bool:
        """Whether ``u`` and ``v`` sit in one reached sequence, once the walk
        has reached both (or run out of sequences)."""
        if max(*u, *v) > WALK_ENTRY_BOUND:
            return False
        with self._lock:
            self._walk_until(lambda: u in self.recipes and v in self.recipes)
            return (min(u, v), max(u, v)) in self.pairs

    def _walk_until(self, done) -> bool:
        if self._seen is None:
            self._seen = set()
            order = _forward_order(self.quiver)
            if order is not None:
                start = tuple(self.quiver.unit_vector(v) for v in order)
                self.recipes.update(dict.fromkeys(start))
                self._visit(start)
        while not done():
            if not self._queue or len(self._seen) >= WALK_STATES:
                return False
            self._expand(self._queue.popleft())
        return True

    def _visit(self, state: tuple[DimVector, ...]) -> None:
        self._seen.add(state)
        self._queue.append(state)
        members = sorted(state)
        self.pairs.update((u, v) for i, u in enumerate(members) for v in members[i + 1:])

    def _expand(self, state: tuple[DimVector, ...]) -> None:
        q = self.quiver
        for i in range(len(state) - 1):
            e, f = state[i], state[i + 1]
            k = euler_form(q, e, f)
            for move in ("L", "R"):
                a, b = (f, e) if move == "L" else (e, f)
                new = tuple(x - k * y for x, y in zip(a, b))
                if all(x <= 0 for x in new):
                    new = tuple(-x for x in new)
                elif any(x < 0 for x in new):
                    raise ArithmeticError(f"a braid move at {(e, f)} left the positive cone")
                if max(new) > WALK_ENTRY_BOUND:
                    continue
                nxt = state[:i] + ((new, e) if move == "L" else (f, new)) + state[i + 2:]
                if nxt in self._seen:
                    continue
                if len(self._seen) >= WALK_STATES:
                    return
                self.recipes.setdefault(new, (move, e, f))
                self._visit(nxt)


def _forward_order(q: Quiver) -> Optional[list[int]]:
    """The vertices with every arrow pointing forward, taking the first
    vertex in vertex order that no remaining arrow enters; None when the
    quiver has a cycle."""
    remaining = list(q.vertices)
    order = []
    while remaining:
        entered = {a.tgt for a in q.arrows if a.src in remaining}
        source = next((v for v in remaining if v not in entered), None)
        if source is None:
            return None
        order.append(source)
        remaining.remove(source)
    return order


_CONTEXTS: dict[Quiver, QuiverContext] = {}
_CONTEXTS_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(q: Quiver) -> CheckReport:
    """Check the quiver invariants; the report names the first violation."""
    report = CheckReport("quiver-valid")
    vertex_set = set(q.vertices)
    report.checked += 1
    if len(vertex_set) != len(q.vertices):
        report.add("distinct-vertices", value=list(q.vertices))
        return report
    if not q.vertices:
        report.add("nonempty", value=0)
        return report
    for a in q.arrows:
        report.checked += 1
        if a.src not in vertex_set or a.tgt not in vertex_set:
            report.add("endpoints", subject=(a.src, a.tgt), value=a.label)
            return report
    labels = [a.label for a in q.arrows]
    report.checked += 1
    if len(set(labels)) != len(labels):
        dup = sorted({l for l in labels if labels.count(l) > 1})[0]
        report.add("distinct-labels", value=dup)
        return report
    report.checked += 1
    if _forward_order(q) is None:
        report.add("acyclic")
        return report
    report.checked += 1
    if not _is_connected(q):
        report.add("connected")
        return report
    return report


def _is_connected(q: Quiver) -> bool:
    if not q.vertices:
        return True
    adjacency: dict[int, set[int]] = {v: set() for v in q.vertices}
    for a in q.arrows:
        adjacency[a.src].add(a.tgt)
        adjacency[a.tgt].add(a.src)
    seen = {q.vertices[0]}
    stack = [q.vertices[0]]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(q.vertices)


# ---------------------------------------------------------------------------
# Euler form and Coxeter transform
# ---------------------------------------------------------------------------

def euler_form(q: Quiver, x: Sequence[int], y: Sequence[int]) -> int:
    """Bilinear form <x,y> = sum_v x_v y_v - sum_{a: s->t} x_s y_t."""
    if len(x) != q.n or len(y) != q.n:
        raise ValueError("dimension vector length mismatch")
    pairs = q._arrow_pairs
    if pairs is None:  # some arrow endpoint is not a vertex
        pairs = [(q.index(a.src), q.index(a.tgt)) for a in q.arrows]
    total = sum(int(a) * int(b) for a, b in zip(x, y))
    for s, t in pairs:
        total -= int(x[s]) * int(y[t])
    return total


def _path_count_matrix(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """C[i][j] = number of directed paths from vertices[i] to vertices[j]."""
    outgoing = {v: [a.tgt for a in q.arrows_out(v)] for v in q.vertices}

    @lru_cache(maxsize=None)
    def count(u: int, w: int) -> int:
        c = 1 if u == w else 0
        for t in outgoing[u]:
            c += count(t, w)
        return c

    return tuple(tuple(count(u, w) for w in q.vertices) for u in q.vertices)


@dataclass(frozen=True)
class CoxeterTransform:
    """Integer linear map with Phi(dim P_i) = -dim I_i for every vertex i."""

    quiver: Quiver
    matrix: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[int, ...], ...]

    def apply(self, x: Sequence[int]) -> DimVector:
        x = tuple(map(int, x))
        return tuple(sum(map(mul, row, x)) for row in self.matrix)

    def apply_inverse(self, x: Sequence[int]) -> DimVector:
        x = tuple(map(int, x))
        return tuple(sum(map(mul, row, x)) for row in self.inverse)

    def ending_orbit(self, x: Sequence[int], steps: int, inverse: bool,
                     budget: Optional[int] = None) -> Optional[tuple[DimVector, ...]]:
        """The iterates x, Phi x, ..., Phi^k x (Phi^-1 when ``inverse``) where
        Phi^{k+1} x is the first iterate with a negative entry and k < steps;
        None when no such k exists, or when an iterate before Phi^{k+1} x
        sums to more than ``budget``.

        dim tau X = Phi(dim X) for every indecomposable non-projective X
        (Dlab-Ringel), so an indecomposable X whose forward orbit ends at k
        is tau^{-k} P_i, and one whose inverse orbit ends at k is tau^k I_i.
        """
        rows = self.inverse if inverse else self.matrix
        v = tuple(map(int, x))
        orbit = [v]
        for _ in range(steps):
            if budget is not None and sum(v) > budget:
                return None
            v = tuple([sum(map(mul, row, v)) for row in rows])
            if min(v) < 0:
                return tuple(orbit)
            orbit.append(v)
        return None


def _euler_matrix(q: Quiver) -> list[list[int]]:
    """E with <x, y> = x^T E y: the identity minus the arrow counts
    E[s][t] for each arrow s -> t.  Over an acyclic quiver E is the inverse
    of the path-count matrix."""
    form = [[int(i == j) for j in range(q.n)] for i in range(q.n)]
    for a in q.arrows:
        form[q.index(a.src)][q.index(a.tgt)] -= 1
    return form


def coxeter_transform(q: Quiver) -> CoxeterTransform:
    """Phi = -C E^T and Phi^-1 = -C^T E, with C the path-count matrix and E
    = C^-1 the Euler matrix; then Phi(dim P_i) = -C E^T C^T e_i = -dim I_i.
    The quiver's context keeps one as ``coxeter``."""
    c, e = q.context.proj_dims, _euler_matrix(q)
    r = range(q.n)
    phi = tuple(tuple(-sum(c[i][k] * e[j][k] for k in r) for j in r) for i in r)
    phi_inv = tuple(tuple(-sum(c[k][i] * e[k][j] for k in r) for j in r) for i in r)
    return CoxeterTransform(q, phi, phi_inv)


def _symmetrized_form(q: Quiver) -> list[list[int]]:
    """B = E + E^T, so B[i][j] = <e_i, e_j> + <e_j, e_i>: 2 on the diagonal,
    minus one for each arrow end between the two vertices (a loop counts
    twice)."""
    e = _euler_matrix(q)
    return [[e[i][j] + e[j][i] for j in range(q.n)] for i in range(q.n)]


def null_root(q: Quiver) -> Optional[DimVector]:
    """Primitive positive radical vector of the symmetrized Euler form, if any.

    For Euclidean quivers this is the null root delta; Dynkin quivers have
    none and wild quivers have no positive one.
    """
    basis = kernel_basis(RationalMatrix.from_rows(_symmetrized_form(q)))
    if len(basis) != 1:
        return None
    scale = lcm(*(x.denominator for x in basis[0]))
    ints = [int(x * scale) for x in basis[0]]
    g = gcd(*ints)  # positive: the basis vector is nonzero
    ints = [x // g for x in ints]
    if all(x <= 0 for x in ints):
        ints = [-x for x in ints]
    if any(x <= 0 for x in ints):
        return None
    return tuple(ints)


def defect(q: Quiver, dims: Sequence[int]) -> Optional[int]:
    """<delta, dim M>; negative on preprojectives, positive on preinjectives."""
    delta = null_root(q)
    if delta is None:
        return None
    return euler_form(q, delta, tuple(int(x) for x in dims))


# ---------------------------------------------------------------------------
# representation type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuiverClass:
    tag: str  # "Dynkin" | "Euclidean" | "Wild"


def classify_type(q: Quiver) -> QuiverClass:
    """Classify a connected quiver by its Tits form (Gabriel; Dlab-Ringel).

    The quiver is Dynkin iff the symmetrized Euler form is positive
    definite, Euclidean iff it is positive semidefinite and singular, and
    wild otherwise; a loop makes it wild.  Exact symmetric elimination
    decides this: a negative pivot, or a zero pivot whose row is not zero,
    means the form is indefinite, and any other zero pivot means it is
    singular.  Precondition: the quiver is connected (``validate`` rejects
    the rest); on a disconnected quiver the answer is the type of its worst
    component.
    """
    if any(a.src == a.tgt for a in q.arrows):
        return QuiverClass("Wild")
    rows = [[Fraction(x) for x in row] for row in _symmetrized_form(q)]
    singular = False
    for k in range(q.n):
        pivot = rows[k][k]
        if pivot < 0 or (pivot == 0 and any(rows[k][k + 1:])):
            return QuiverClass("Wild")
        if pivot == 0:
            singular = True
            continue
        for i in range(k + 1, q.n):
            factor = rows[i][k] / pivot
            if factor:
                for j in range(k + 1, q.n):
                    rows[i][j] -= factor * rows[k][j]
    return QuiverClass("Euclidean" if singular else "Dynkin")


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

def kronecker(m: int) -> Quiver:
    """Two vertices 1, 2 with m parallel arrows 2 -> 1."""
    if m < 1:
        raise ValueError("kronecker quiver needs m >= 1")
    return Quiver.make([1, 2], [(2, 1, f"a{k}") for k in range(1, m + 1)])


def canonical_apq(p: int, q: int) -> Quiver:
    """Canonically oriented Euclidean cycle with arm lengths p <= q.

    Vertices 0..p+q-1; the unique source p+q-1 feeds two directed chains of
    lengths p (through p-1,...,1) and q (through p+q-2,...,p) that meet at the
    unique sink 0.
    """
    if not (1 <= p <= q):
        raise ValueError("need 1 <= p <= q")
    nv = p + q
    vertices = list(range(nv))
    arrows: list[tuple[int, int, str]] = []
    counter = 1

    def arr(src: int, tgt: int):
        nonlocal counter
        arrows.append((src, tgt, f"a{counter}"))
        counter += 1

    for i in range(1, p):
        arr(i, i - 1)  # upper chain ... 2->1->0
    arr(nv - 1, p - 1)  # source into the upper chain (p-1 is 0 when p = 1)
    if q == 1:
        arr(nv - 1, 0)  # p = q = 1: second parallel arrow, Kronecker shape
    else:
        arr(nv - 1, nv - 2)
        for i in range(nv - 2, p, -1):
            arr(i, i - 1)  # lower chain ... p+1->p
        arr(p, 0)
    return Quiver.make(vertices, arrows)
