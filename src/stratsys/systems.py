"""Stratifying systems: axioms, completeness, filtration finiteness, extension.

A stratifying system is an ordered list (X_1, ..., X_t) of indecomposable
modules with Hom(X_j, X_i) = 0 for j > i and Ext^1(X_j, X_i) = 0 for j >= i;
it is complete when t equals the number of vertices.  Lists are ingested
left-to-right in that indexing.  Indecomposability is certified through
exceptionality (End of dimension 1 with no self-extensions), which every
member of a stratifying system over a hereditary algebra must satisfy.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .modules import (ModuleRef, PLAIN, PREINJ, PREPROJ, TUBE, pair_ext,
                      pair_hom_ext, ref_dims, ref_is_exceptional, ref_preinj,
                      ref_preproj, ref_total_dim, ref_tube)
from .apq import TUBE_INFTY, TUBE_ZERO, recognize_apq
from .linalg import RationalMatrix, kernel_matrix
from .quiver import DimVector, Quiver, _euler_matrix
from .report import CheckReport


class StratSystem(NamedTuple):
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
    selfs = [pair_hom_ext(m, m) for m in mods]
    for i, (m, fact) in enumerate(zip(mods, selfs), start=1):
        report.checked += 1
        if fact != (1, 0):
            report.add("indecomposable-exceptional", subject=(i,), value=fact, note=m.describe())
    for j in range(1, t + 1):
        for i in range(1, j + 1):
            h, e = selfs[i - 1] if i == j else pair_hom_ext(mods[j - 1], mods[i - 1])
            report.checked += 1 + (i < j)  # Hom(X_j, X_i) for i < j, Ext1 for i <= j
            if i < j and h:
                report.add("hom-vanishing Hom(X_j,X_i)", subject=(j, i), value=h)
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

def _ray(vec: Sequence[int]) -> Optional[DimVector]:
    """The primitive vector with the first nonzero entry positive on the
    line through ``vec``, or None for the zero vector."""
    g = gcd(*vec)
    if not g:
        return None
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)


def completion_ray(form: Sequence[Sequence[int]], dims: Sequence[DimVector],
                   pos: int) -> DimVector:
    """The ``_ray`` of the x with <x, e> = 0 for each e of ``dims`` before
    slot ``pos`` and <e, x> = 0 for each e after it, ``form`` being the Euler
    matrix; ``ArithmeticError`` when those solutions are not a line."""
    rows = [[sum(map(mul, row, e)) for row in form] for e in dims[:pos]]  # x . (form e)
    rows += [[sum(map(mul, col, e)) for col in zip(*form)] for e in dims[pos:]]  # (e form) . x
    basis = kernel_matrix(RationalMatrix.from_nums(rows, 1, len(form)))
    if basis.cols != 1:
        raise ArithmeticError(f"the slot's solutions span {basis.cols} dimensions")
    return _ray([row[0] for row in basis.nums])


def build_candidates(quiver: Quiver, exponent_bound: int) -> list[ModuleRef]:
    """Search space for completions: the exceptional tau-orbit modules of
    projectives and injectives up to the exponent bound, plus the
    simple-regular catalogue when the quiver is a canonical Euclidean cycle;
    one per dimension vector, in search order."""
    refs: list[ModuleRef] = []
    for v in quiver.vertices:
        for k in range(exponent_bound + 1):
            refs.append(ref_preproj(quiver, v, k))
            refs.append(ref_preinj(quiver, v, k))
    if quiver.context.quiver_class.tag == "Euclidean":
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


def _exceptional_sequences(refs: Sequence[ModuleRef], length: int,
                           start: Sequence[ModuleRef] = (),
                           slots: Optional[Callable[[int, int], Iterable[int]]] = None,
                           report: Optional[CheckReport] = None
                           ) -> Iterator[tuple[int, ...]]:
    """Depth-first search for ordered systems over ``refs``, by index.

    The systems are the exceptional sequences of Crawley-Boevey ("Exceptional
    sequences of representations of quivers", 1993).  The indices run over
    ``start`` followed by ``refs``, the picks.  Starting from ``start`` (taken
    to satisfy the axioms), each step inserts a pick at a position from
    ``slots(size, last_slot)`` (default: appended) and checks only the new
    pairs; each attempt counts one check on ``report``.  Every accepted
    sequence is yielded in depth-first order and grown while shorter than
    ``length``, so a caller takes the first hit of full length, all of them,
    or the longest length reached.  Every item must live over one quiver.

    A step needs two facts from (dim Hom, dim Ext^1) = ``pair_hom_ext``:
    ``b`` may follow ``a`` iff pair_hom_ext(b, a) == (0, 0), and ``i`` is
    exceptional iff pair_hom_ext(i, i) == (1, 0).  Since dim Hom - dim Ext^1
    = <dim b, dim a>, a nonzero Euler form answers "no" without the engine:
    each member j gets two bitmasks over the picks, built from the quiver's
    Euler matrix when first needed, of the x with <x, dim j> = 0 and of
    those with <dim j, x> = 0, and a slot tries only the picks in the AND of
    its members' masks.  So the engine is asked about a subset of the pairs
    a scan of every pick asks about, and ``report`` still counts one check
    per pick.  The search keeps the facts it asked for in its own dict, by
    item index; the engine's ``hom_ext`` memo answers a pedigreed pair
    again in a later search.  The new pairs are tried before
    exceptionality, which is the costly fact for large explicit modules.

    The last member, the n-th over n vertices, is placed on a line.  Into
    slot ``pos`` of E_1, ..., E_{n-1} a pick x fits only if <x, dim E_j> = 0
    before the slot and <dim E_j, x> = 0 after it: n - 1 linear equations.
    The sequence has one completion at every slot, and the Gram matrix
    <dim F_a, dim F_b> of the complete sequence F is unitriangular, so the
    equations have rank n - 1 and their solutions are the multiples of the
    completion's dimension vector (``completion_ray``).  Only the picks on
    that line are tried, in pick order; every other pick failed an Euler
    screen before, so the hits, their order and the facts that decide them
    are those of a scan of every pick, and ``report`` still counts one check
    per pick up to where the caller stops.

    An appending search (no ``slots``) grows each member set once: whether
    ``i`` may follow depends on the set before it, not on its order, so a
    reordering of a grown set reaches no new set, length or earlier first hit.
    Its tuples come in lexicographic order, so the first full-length hit is
    the least valid tuple, and every accepted tuple is still yielded (at
    length 2, every valid ordering).  An insertion search grows them all.
    """
    start = tuple(start)
    items = start + tuple(refs)
    first = len(start)
    ctx = items[0].quiver.context if items else None
    # the Euler screen holds over one quiver only
    if any(r.quiver.context is not ctx for r in items):
        raise ValueError("modules live over different quivers")
    form = tuple(map(tuple, _euler_matrix(items[0].quiver))) if items else ()
    n = len(form)
    grown: Optional[set[frozenset[int]]] = set() if slots is None else None
    slots = slots or (lambda size, last: (size,))
    facts: dict[object, bool] = {}

    def follows(b: int, a: int) -> bool:  # asked only where <dim b, dim a> = 0
        fact = facts.get((b, a))
        if fact is None:
            fact = facts[(b, a)] = pair_hom_ext(items[b], items[a]) == (0, 0)
        return fact

    vecs = [ref_dims(r) for r in items]
    lines: dict[DimVector, list[int]] = {}  # the picks by the primitive vector of their line
    for k in range(first, len(items)):
        ray = _ray(vecs[k])
        if ray is not None:  # a zero module is never exceptional
            lines.setdefault(ray, []).append(k)
    masks: dict[int, tuple[int, int]] = {}

    def mask(j: int) -> tuple[int, int]:
        """The picks x with <x, dim j> = 0 and those with <dim j, x> = 0, as
        bits by item index."""
        m = masks.get(j)
        if m is None:
            e = vecs[j]
            right = [sum(map(mul, row, e)) for row in form]  # <x, e> = x . right
            left = [sum(map(mul, col, e)) for col in zip(*form)]  # <e, x> = left . x
            after = before = 0
            for k in range(first, len(items)):
                after |= (not sum(map(mul, vecs[k], right))) << k
                before |= (not sum(map(mul, left, vecs[k]))) << k
            m = masks[j] = (after, before)
        return m

    def screened(seq: tuple[int, ...], pos: int) -> Iterator[int]:
        """The picks that pass the Euler form against every member of
        ``seq`` at slot ``pos``, ascending."""
        bits = (1 << len(items)) - (1 << first)
        for j in seq[:pos]:
            bits &= mask(j)[0]
        for j in seq[pos:]:
            bits &= mask(j)[1]
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def exceptional(i: int) -> bool:
        fact = facts.get(i)
        if fact is None:
            fact = facts[i] = pair_hom_ext(items[i], items[i]) == (1, 0)
        return fact

    def grow(seq: tuple[int, ...], last: int, recurse) -> Iterator[tuple[int, ...]]:
        if grown is not None:
            grown.add(frozenset(seq))
        for pos in slots(len(seq), last):
            counted = first  # the picks before ``counted`` have their check
            if len(seq) == n - 1:  # the last member: only the picks on its line
                picks = lines.get(completion_ray(form, [vecs[j] for j in seq], pos), ())
            else:
                picks = screened(seq, pos)
            for i in picks:
                if report is not None:
                    report.checked += i + 1 - counted
                counted = i + 1
                if (all(follows(i, j) for j in seq[:pos])
                        and all(follows(j, i) for j in seq[pos:])
                        and exceptional(i)):
                    child = seq[:pos] + (i,) + seq[pos:]
                    yield child
                    if len(child) < length and (grown is None
                                                or frozenset(child) not in grown):
                        yield from recurse(child, pos, recurse)
            if report is not None:
                report.checked += len(items) - counted

    # grow gets itself as ``recurse``: a closure over its own name would be a
    # reference cycle that keeps its facts alive until the cyclic collector runs
    return grow(tuple(range(first)), 0, grow)


def extend_to_complete(s: StratSystem, exponent_bound: int = 8, positions=None
                       ) -> tuple[Optional[StratSystem], CheckReport]:
    """Insert exceptional modules from ``build_candidates(s.quiver,
    exponent_bound)`` until the system is complete.

    ``positions`` restricts insertion slots: a list of indices (single-slot
    searches), the string "outer" (prepend or append only), or None for
    anywhere.  Returns the first completion in deterministic candidate order
    (or None) plus a report.  With one member missing, every viable
    candidate is collected and grouped by its slot: the completion at a given
    slot is unique for hereditary algebras, so two non-isomorphic ones in one
    slot get flagged as an inconsistency (different slots may well differ).
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
    pool = build_candidates(s.quiver, exponent_bound)
    items = s.modules + tuple(pool)

    def slot_list(size: int, last: int) -> Iterable[int]:
        if positions == "outer":
            return sorted({0, size})
        if positions is not None:
            return [p for p in positions if 0 <= p <= size]
        return range(last, size + 1)

    hits = (seq for seq in _exceptional_sequences(pool, n, start=s.modules,
                                                  slots=slot_list, report=report)
            if len(seq) == n)
    if n - s.size == 1:
        hits = list(hits)
        by_slot: dict[int, dict] = {}
        for seq in hits:
            i = max(seq)  # the inserted candidate has the largest index
            by_slot.setdefault(seq.index(i), {}).setdefault(ref_dims(items[i]), items[i])
        for pos, distinct in sorted(by_slot.items()):
            if len(distinct) > 1:
                report.flag(f"uniqueness violated: multiple completions in slot {pos}: "
                            + ", ".join(c.describe() for c in distinct.values()))
    found = next(iter(hits), None)
    if found is None:
        report.add("no-completion", note="none found within bounds")
        return None, report
    result = StratSystem(s.quiver, tuple(items[i] for i in found))
    final = check_css(result)
    report.merge(final)
    return (result if final.passed else None), report
