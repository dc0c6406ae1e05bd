"""Stratifying systems: axioms, completeness, filtration finiteness, extension.

A stratifying system is an ordered list (X_1, ..., X_t) of indecomposable
modules with Hom(X_j, X_i) = 0 for j > i and Ext^1(X_j, X_i) = 0 for j >= i;
it is complete when t equals the number of vertices.  Lists are ingested
left-to-right in that indexing.  Indecomposability is certified through
exceptionality (End of dimension 1 with no self-extensions), which every
member of a stratifying system over a hereditary algebra must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .modules import (ModuleRef, PLAIN, PREINJ, PREPROJ, TUBE, pair_ext,
                      pair_hom, pair_hom_ext, ref_dims, ref_is_exceptional, ref_key,
                      ref_preinj, ref_preproj, ref_total_dim, ref_tube)
from .apq import TUBE_INFTY, TUBE_ZERO, recognize_apq
from .quiver import Quiver, classify_type, euler_form
from .report import CheckReport


@dataclass(frozen=True)
class StratSystem:
    """Ordered candidate system over a fixed quiver."""

    quiver: Quiver
    modules: tuple[ModuleRef, ...]

    @property
    def size(self) -> int:
        return len(self.modules)

    def describe(self) -> str:
        return "(" + ", ".join(m.describe() for m in self.modules) + ")"


# ---------------------------------------------------------------------------
# the axioms
# ---------------------------------------------------------------------------

def check_ss(s: StratSystem) -> CheckReport:
    """Verify the stratifying-system axioms; all failures become violations."""
    report = CheckReport("stratifying-system")
    mods = s.modules
    t = len(mods)
    for i, m in enumerate(mods, start=1):
        report.checked += 1
        if not any(ref_dims(m)):
            report.add("nonzero", subject=(i,), value=0)
    for i, m in enumerate(mods, start=1):
        report.checked += 1
        if not ref_is_exceptional(m):
            report.add("indecomposable-exceptional", subject=(i,),
                       value=(pair_hom(m, m), pair_ext(m, m)),
                       note=m.describe())
    for j in range(1, t + 1):
        for i in range(1, t + 1):
            if j > i:
                report.checked += 1
                h = pair_hom(mods[j - 1], mods[i - 1])
                if h:
                    report.add("hom-vanishing Hom(X_j,X_i)", subject=(j, i), value=h)
            if j >= i:
                report.checked += 1
                e = pair_ext(mods[j - 1], mods[i - 1])
                if e:
                    report.add("ext-vanishing Ext1(X_j,X_i)", subject=(j, i), value=e)
    return report


def check_css(s: StratSystem) -> CheckReport:
    """check_ss plus completeness: the size must equal the vertex count."""
    report = check_ss(s)
    report.name = "complete-stratifying-system"
    report.checked += 1
    n = s.quiver.n
    if s.size != n:
        report.add("complete (t = n)", value=(s.size, n), note="incomplete")
    return report


# ---------------------------------------------------------------------------
# filtration-category finiteness
# ---------------------------------------------------------------------------

def is_filtration_finite(s: StratSystem) -> bool:
    """The filtration category reduces to add of the members exactly when all
    pairwise first extensions vanish (then nothing can be glued)."""
    for a in s.modules:
        for b in s.modules:
            if pair_ext(a, b):
                return False
    return True


# ---------------------------------------------------------------------------
# extension to a complete system
# ---------------------------------------------------------------------------

def build_candidates(quiver: Quiver, exponent_bound: int) -> list[ModuleRef]:
    """Search space for completions: the exceptional tau-orbit modules of
    projectives and injectives up to the exponent bound, plus the
    simple-regular catalogue when the quiver is a canonical Euclidean cycle;
    one per dimension vector, in search order, built once per bound in the
    quiver's context."""
    ctx = quiver.context
    refs = ctx.pools.get(exponent_bound)
    if refs is not None:
        ctx.hits["pools"] += 1
    else:
        ctx.misses["pools"] += 1
        refs = ctx.pools[exponent_bound] = tuple(_build_candidates(quiver, exponent_bound))
    return list(refs)


def _build_candidates(quiver: Quiver, exponent_bound: int) -> list[ModuleRef]:
    refs: list[ModuleRef] = []
    for v in quiver.vertices:
        for k in range(exponent_bound + 1):
            refs.append(ref_preproj(quiver, v, k))
            refs.append(ref_preinj(quiver, v, k))
    if classify_type(quiver).tag == "Euclidean":
        pq = recognize_apq(quiver)
        if pq is not None:
            p, q = pq
            for label, rank in ((TUBE_INFTY, p), (TUBE_ZERO, q)):
                for i in range(1, rank + 1):
                    refs.append(ref_tube(p, q, label, i))
            # rank-1 tubes hold no exceptional modules; nothing to add
    refs = [r for r in refs if ref_is_exceptional(r)]
    seen: set[tuple] = set()
    unique: list[ModuleRef] = []
    kind_rank = {PREPROJ: 0, PREINJ: 1, TUBE: 2, PLAIN: 3}
    for r in sorted(refs, key=lambda r: (ref_total_dim(r), r.power, kind_rank[r.kind],
                                         r.vertex if r.vertex is not None else -1)):
        dims = ref_dims(r)
        if dims in seen:
            continue
        seen.add(dims)
        unique.append(r)
    return unique


def _exceptional_sequences(items: Sequence[ModuleRef], length: int,
                           start: Sequence[int] = (),
                           picks: Optional[Sequence[int]] = None,
                           slots: Optional[Callable[[int, int], Iterable[int]]] = None,
                           report: Optional[CheckReport] = None
                           ) -> Iterator[tuple[int, ...]]:
    """Depth-first search for ordered systems over ``items``, by index.

    The systems are the exceptional sequences of Crawley-Boevey ("Exceptional
    sequences of representations of quivers", 1993).  Starting from ``start``
    (taken to satisfy the axioms), each step inserts an index from ``picks``
    (default: every item) at a position from ``slots(size, last_slot)``
    (default: appended) and checks only the new pairs; each attempt counts one
    check on ``report``.  Every accepted sequence is yielded in depth-first
    order and grown while shorter than ``length``, so a caller takes the first
    hit of full length, all of them, or the longest length reached.

    A step needs two facts from (dim Hom, dim Ext^1) = ``pair_hom_ext``:
    ``b`` may follow ``a`` iff pair_hom_ext(b, a) == (0, 0), and ``i`` is
    exceptional iff pair_hom_ext(i, i) == (1, 0).  Since dim Hom - dim Ext^1
    = <dim b, dim a>, a nonzero Euler form answers "no" without the engine.
    Over pedigreed items the facts live in the quiver's ``precedence`` memo,
    keyed by interned ids and shared by every search on the quiver; a search
    with an explicit item keeps its own.  The new pairs are tried before
    exceptionality, which is the costly fact for large explicit modules.

    An appending search (no ``slots``) grows each member set once: whether
    ``i`` may follow depends on the set before it, not on its order, so a
    reordering of a grown set reaches no new set, length or earlier first hit.
    Its tuples come in lexicographic order, so the first full-length hit is
    the least valid tuple, and every accepted tuple is still yielded (at
    length 2, every valid ordering).  An insertion search grows them all.
    """
    picks = range(len(items)) if picks is None else picks
    grown: Optional[set[frozenset[int]]] = set() if slots is None else None
    slots = slots or (lambda size, last: (size,))

    ctx = items[0].quiver.context if items else None
    # shared and screened facts hold over one quiver only
    if any(r.quiver.context is not ctx for r in items):
        raise ValueError("modules live over different quivers")
    if items and all(r.kind != PLAIN for r in items):
        ids, memo = ctx.intern([ref_key(r) for r in items])
    else:  # explicit modules stay out of the context
        ids, memo = range(len(items)), {}

    def follows(b: int, a: int) -> bool:
        key = (ids[b], ids[a])
        fact = memo.get(key)
        if fact is None:
            x, y = items[b], items[a]
            fact = memo[key] = (euler_form(x.quiver, ref_dims(x), ref_dims(y)) == 0
                                and pair_hom_ext(x, y) == (0, 0))
        return fact

    def exceptional(i: int) -> bool:
        fact = memo.get(ids[i])
        if fact is None:
            fact = memo[ids[i]] = pair_hom_ext(items[i], items[i]) == (1, 0)
        return fact

    def grow(seq: tuple[int, ...], last: int, recurse) -> Iterator[tuple[int, ...]]:
        if grown is not None:
            grown.add(frozenset(seq))
        for pos in slots(len(seq), last):
            for i in picks:
                if report is not None:
                    report.checked += 1
                if (all(follows(i, j) for j in seq[:pos])
                        and all(follows(j, i) for j in seq[pos:])
                        and exceptional(i)):
                    child = seq[:pos] + (i,) + seq[pos:]
                    yield child
                    if len(child) < length and (grown is None
                                                or frozenset(child) not in grown):
                        yield from recurse(child, pos, recurse)

    # grow gets itself as ``recurse``: a closure over its own name would be a
    # reference cycle that keeps the memo alive until the cyclic collector runs
    return grow(tuple(start), 0, grow)


def extend_to_complete(s: StratSystem, exponent_bound: int = 8, positions=None
                       ) -> tuple[Optional[StratSystem], CheckReport]:
    """Insert exceptional modules from ``build_candidates(s.quiver,
    exponent_bound)`` until the system is complete.

    ``positions`` restricts insertion slots: a list of indices (single-slot
    searches), the string "outer" (prepend or append only), or None for
    anywhere.  Returns the first completion in deterministic candidate order
    (or None) plus a report.  With exactly one slot open, every viable
    candidate is collected: two non-isomorphic ones get flagged as an
    inconsistency (one-slot completions are unique for hereditary algebras).
    """
    report = CheckReport("extend-to-complete")
    base = check_ss(s)
    if not base.passed:
        report.merge(base)
        report.add("input-system", note="input fails the stratifying axioms")
        return None, report
    n = s.quiver.n
    if s.size > n:
        report.add("size", value=(s.size, n))
        return None, report
    if s.size == n:
        report.checked += 1
        return s, report
    items = list(s.modules) + build_candidates(s.quiver, exponent_bound)

    def slot_list(size: int, last: int) -> Iterable[int]:
        if positions == "outer":
            return sorted({0, size})
        if positions is not None:
            return [p for p in positions if 0 <= p <= size]
        return range(last, size + 1)

    hits = (seq for seq in _exceptional_sequences(
        items, n, start=range(s.size), picks=range(s.size, len(items)),
        slots=slot_list, report=report) if len(seq) == n)
    if n - s.size == 1:
        hits = list(hits)
        distinct: dict = {}
        for seq in hits:
            cand = items[max(seq)]  # the inserted candidate has the largest index
            distinct.setdefault(ref_dims(cand), cand)
        if len(distinct) > 1:
            report.flag("uniqueness violated: multiple one-slot completions "
                        + ", ".join(c.describe() for c in distinct.values()))
    found = next(iter(hits), None)
    if found is None:
        report.add("no-completion", note="none found within bounds")
        return None, report
    result = StratSystem(s.quiver, tuple(items[i] for i in found))
    final = check_css(result)
    report.merge(final)
    return (result if final.passed else None), report
