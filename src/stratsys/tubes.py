"""Verification harnesses for the canonical Euclidean cycle quivers.

Everything specific to the tubes over the arm-length (p, q) quiver lives
here: the F/G systems of simple regulars, the tau-cycle checks (the one
structural anchor), closed-form supports of tau-shifted families read off
that cycle, mouth systems, rigid-family bounds inside a tube with Ext^1 from
the engine, and the maximal size of an all-regular stratifying system.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul

from .apq import (TUBE_INFTY, TUBE_ZERO, TubeLabel, TubePoint, apq_algebra,
                  mouth_dim_vector, recognize_apq, tube_lambda, tube_rank)
from .artheory import tau
from .modules import ModuleRef, pair_ext, pair_hom_ext, ref_dims, ref_is_exceptional, ref_tube
from .quiver import Quiver, _euler_matrix
from .report import CheckReport
from .reps import brick_iso, hom_dim
from .systems import StratSystem, _exceptional_sequences

LAMBDA_SAMPLE = (1, 2, "1/2", -1)


# ---------------------------------------------------------------------------
# the F and G systems
# ---------------------------------------------------------------------------

def fg_system(p: int, q: int) -> StratSystem:
    """(F_1..F_{p-1}, G_1..G_{q-1}), a stratifying system of size p+q-2: the
    mouth systems of the rank-p and the rank-q tube, one after the other."""
    f, g = mouth_ss(p, q, TUBE_INFTY), mouth_ss(p, q, TUBE_ZERO)
    return StratSystem(f.quiver, f.modules + g.modules)


# ---------------------------------------------------------------------------
# tau cycles on the mouths
# ---------------------------------------------------------------------------

def verify_tau_cycles(p: int, q: int) -> CheckReport:
    """Structurally apply tau to every mouth module and compare with the
    predicted cyclic neighbour (brick isomorphism test), including the
    wrap-arounds and the fixed points of the rank-1 tubes."""
    report = CheckReport(f"tau-cycles p={p} q={q}")
    alg = apq_algebra(p, q)
    for label in (TUBE_INFTY, TUBE_ZERO):
        rank = alg.tube_rank(label)
        for i in range(1, rank + 1):
            current = alg.simple_regular(label, i)
            predicted_index = (i - 2) % rank + 1
            predicted = alg.simple_regular(label, predicted_index)
            report.checked += 1
            image = tau(current)
            if not brick_iso(image, predicted):
                report.add("tau-cycle", subject=(label.short(), i),
                           value=image.dims, note=f"expected index {predicted_index}")
        # named relations on the rank-q tube are reported explicitly
        if label.kind == "zero" and rank >= 2:
            last = alg.simple_regular(label, rank - 1)
            big = alg.simple_regular(label, rank)
            if brick_iso(tau(big), last):
                report.flag("tau E_q^(0) = E_{q-1}^(0) holds")
            if brick_iso(tau(alg.simple_regular(label, 1)), big):
                report.flag("tau E_1^(0) = E_q^(0) holds")
    for lam in LAMBDA_SAMPLE:
        label = tube_lambda(lam)
        mouth = alg.simple_regular(label, 1)
        image = tau(mouth)
        report.checked += 1
        if image.dims != mouth.dims:
            report.add("tau-fixed-dim", subject=(label.short(),), value=image.dims)
            continue
        report.checked += 1
        if not brick_iso(image, mouth):
            report.add("tau-fixed-point", subject=(label.short(),))
        report.checked += 1
        if hom_dim(mouth, image) == 0:
            report.add("hom(E, tau E) nonzero", subject=(label.short(),), value=0)
    return report


# ---------------------------------------------------------------------------
# closed-form supports of tau-shifted families
# ---------------------------------------------------------------------------

def support_formula(p: int, q: int, which: str, n: int) -> set[int]:
    """Closed-form support of tau^n applied to the F or G family (n != 0).

    Four cases per family: divisibility by the tube rank keeps the base
    support; otherwise one vertex determined by the residue is missing.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    everything = set(range(p + q))
    if which == "F":
        if p == 1:
            return set()  # F is empty
        base = set(range(1, p))
        r = abs(n) % p
        if r == 0:
            return base
        return everything - ({p - r} if n > 0 else {r})
    if which == "G":
        if q == 1:
            return set()
        base = set(range(p, p + q - 1))
        r = abs(n) % q
        if r == 0:
            return base
        return everything - ({p + q - r - 1} if n > 0 else {p + r - 1})
    raise ValueError("which must be 'F' or 'G'")


def _family_orbit_supports(p: int, q: int, which: str, n_max: int) -> dict[int, set[int]]:
    """Supports of tau^n of the whole family for all 0 < |n| <= n_max."""
    label = TUBE_INFTY if which == "F" else TUBE_ZERO
    rank = tube_rank(p, q, label)
    mouths = [{v for v, d in enumerate(mouth_dim_vector(p, q, label, i)) if d}
              for i in range(1, rank + 1)]
    return {n: set().union(*(mouths[(i - n - 1) % rank] for i in range(1, rank)))
            for n in range(-n_max, n_max + 1) if n}


def verify_support_formula(p: int, q: int, n_max: int) -> CheckReport:
    """Compare ``support_formula`` with tau^n of the families, 0 < |n| <= n_max.

    tau is an equivalence from the non-projective to the non-injective
    modules, and no tube module is either, so the mouth cycle tau E_i = E_{i-1}
    that ``verify_tau_cycles`` checks structurally gives tau^n E_i = E_{i-n}
    (indices mod the rank) for every n: its support is a mouth support."""
    report = CheckReport(f"support-formula p={p} q={q} |n|<={n_max}")
    for which in ("F", "G"):
        orbit_all = _family_orbit_supports(p, q, which, n_max)
        for n in range(1, n_max + 1):
            for signed in (n, -n):
                report.checked += 1
                closed = support_formula(p, q, which, signed)
                orbit = orbit_all[signed]
                if closed != orbit:
                    report.add("support", subject=(which, signed),
                               value=(sorted(orbit), sorted(closed)))
    return report


# ---------------------------------------------------------------------------
# stratifying systems inside one tube
# ---------------------------------------------------------------------------

def mouth_ss(p: int, q: int, label: TubeLabel) -> StratSystem:
    """(X_{r-1}, ..., X_1) from the tau-cycle of mouth modules; empty for
    rank-1 tubes."""
    alg = apq_algebra(p, q)
    rank = alg.tube_rank(label)
    refs = tuple(ref_tube(p, q, label, i) for i in range(rank - 1, 0, -1))
    return StratSystem(alg.quiver, refs)


def _ext_orthogonal_families(rigid: list[TubePoint], ext: dict) -> list[tuple[TubePoint, ...]]:
    """Every nonempty Ext-orthogonal family of the rigid points, by size and
    then in the order of ``combinations``.  A family of size k + 1 is one of
    size k extended by a later point with no Ext^1 against any member in
    either direction; orthogonality is pairwise, so no family is missed."""
    free = [[not (ext[(a, b)] or ext[(b, a)]) for b in rigid] for a in rigid]
    families, layer = [], [(j,) for j in range(len(rigid))]
    while layer:
        families += (tuple(rigid[i] for i in family) for family in layer)
        layer = [family + (j,) for family in layer for j in range(family[-1] + 1, len(rigid))
                 if all(free[i][j] for i in family)]
    return families


def tube_rigid_bound_check(p: int, q: int, label: TubeLabel) -> CheckReport:
    """Check the cone-length bound and the summand bound inside one tube.

    Both bounds read only the Ext-orthogonal families of rigid points with
    levels up to rank + 1.  Whenever such a family has at most rank members
    and pairwise disjoint cones, the summed regular lengths must stay at
    most rank - size; and every such family has at most rank - 1 members.
    """
    alg = apq_algebra(p, q)
    rank = alg.tube_rank(label)
    report = CheckReport(f"tube-rigid-bounds p={p} q={q} tube={label.short()}")
    refs = [ref_tube(p, q, label, i, j) for i in range(1, rank + 1) for j in range(1, rank + 2)]
    points = [ref.point for ref in refs]
    cones = {pt: alg.cone(pt) for pt in points}
    ext = {(a.point, b.point): pair_ext(a, b) for a in refs for b in refs}
    families = _ext_orthogonal_families([pt for pt in points if ext[(pt, pt)] == 0], ext)
    for family in families:
        if len(family) > rank or not all(cones[a].isdisjoint(cones[b])
                                         for a, b in combinations(family, 2)):
            continue
        report.checked += 1
        total_length = sum(pt.level for pt in family)
        if total_length > rank - len(family):
            report.add("cone-length bound", subject=tuple((pt.index, pt.level)
                                                          for pt in family),
                       value=(total_length, rank - len(family)))
    for family in families:
        report.checked += 1
        if len(family) > rank - 1:
            report.add("summand bound", subject=tuple((pt.index, pt.level)
                                                      for pt in family),
                       value=(len(family), rank - 1))
    if rank == 1:
        report.checked += 1  # only the empty family qualifies; nothing to violate
    return report


# ---------------------------------------------------------------------------
# maximal all-regular systems
# ---------------------------------------------------------------------------

def regular_exceptional_pool(quiver: Quiver, dim_cap: int) -> list[ModuleRef]:
    """Regular exceptional modules with total dimension within the cap.

    Catalogued for canonical cycle quivers (tube points of level below the
    rank); the Kronecker double-arrow quiver has only rank-1 tubes, hence an
    empty pool.  Other Euclidean shapes are out of catalogue range.
    """
    if quiver.context.quiver_class.tag != "Euclidean":
        raise ValueError("regular catalogue applies to Euclidean quivers only")
    if quiver.n == 2 and len(quiver.arrows) == 2:
        return []  # Kronecker shape: homogeneous tubes only
    pq = recognize_apq(quiver)
    if pq is None:
        raise ValueError("regular catalogue available only for canonical "
                         "cycle quivers (and the Kronecker shape)")
    p, q = pq
    refs: list[ModuleRef] = []
    for label in (TUBE_INFTY, TUBE_ZERO):
        rank = tube_rank(p, q, label)
        for i in range(1, rank + 1):
            for level in range(1, rank):
                ref = ref_tube(p, q, label, i, level)
                if sum(ref_dims(ref)) <= dim_cap and ref_is_exceptional(ref):
                    refs.append(ref)
    refs.sort(key=lambda r: (sum(ref_dims(r)), r.point.tube.short(), r.point.index,
                             r.point.level))
    return refs


def max_regular_ss_size(quiver: Quiver, dim_cap: int) -> int:
    """The size of the largest stratifying system whose members are regular
    exceptional modules of total dimension within the cap, searched one
    orthogonal block of the pool at a time.

    Two pool modules are linked when either Euler form between them is
    nonzero, or, where both are zero, when ``pair_hom_ext`` is not (0, 0) in
    either direction.  The blocks are the connected components of that link
    graph, and the answer is the sum over the blocks of the longest
    exceptional sequence inside each (``_exceptional_sequences``).  The sum
    is exact.  The longest sequences of the blocks, one after another, form
    a valid sequence: each member was valid inside its block, and every pair
    across blocks has Hom and Ext^1 zero both ways, which the engine checked
    when it found the pair unlinked.  Conversely, a valid sequence restricted
    to one block is still valid, since the axioms are pairwise, so no
    sequence is longer than the sum.  Different tubes are Hom- and
    Ext-orthogonal (Ringel, LNM 1099, 3.1), so each block lies in one tube;
    the code checks the orthogonality rather than assumes it.
    """
    pool = regular_exceptional_pool(quiver, dim_cap)
    form = _euler_matrix(quiver)
    vecs = [ref_dims(r) for r in pool]
    rows = [[sum(map(mul, col, e)) for col in zip(*form)] for e in vecs]  # <e, x> = row . x
    block = list(range(len(pool)))  # each module's block, named by its least index

    def linked(a: int, b: int) -> bool:
        return bool(sum(map(mul, rows[a], vecs[b])) or sum(map(mul, rows[b], vecs[a]))
                    or pair_hom_ext(pool[a], pool[b]) != (0, 0)
                    or pair_hom_ext(pool[b], pool[a]) != (0, 0))

    for b in range(len(pool)):
        for a in range(b):
            if block[a] != block[b] and linked(a, b):
                old, new = max(block[a], block[b]), min(block[a], block[b])
                block = [new if k == old else k for k in block]
    members: dict[int, list[ModuleRef]] = {}
    for ref, k in zip(pool, block):
        members.setdefault(k, []).append(ref)
    return sum(max(map(len, _exceptional_sequences(refs, quiver.n)), default=0)
               for refs in members.values())
