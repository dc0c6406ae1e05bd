"""The Auslander-Reiten translate as an explicit construction.

tau is computed structurally: take the minimal projective presentation
0 -> P1 -> P0 -> M -> 0, apply the Nakayama functor (P_i goes to I_i, path
coefficients carried along), and take the kernel.  tau_inv is the dual
construction, realized through the standard duality with the opposite
quiver.  The Coxeter transform is only ever a cross-check on dimension
vectors, never the definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .linalg import RationalMatrix
from .quiver import Path, Quiver, classify_type, defect
from .report import CheckReport
from .reps import (ProjPresentation, Representation, direct_sum,
                   dual_representation, ext1_dim, hom_dim, injective,
                   kernel_representation, minimal_presentation, zero_rep)


class CapExceededError(RuntimeError):
    """Raised when an orbit iteration cannot settle within the configured cap."""


@dataclass(frozen=True)
class ArPosition:
    """Location in the AR quiver: tau^{-k} P_i, tau^k I_i, or regular."""

    kind: str  # "Preprojective" | "Preinjective" | "Regular"
    vertex: Optional[int] = None
    power: int = 0


def _injective_path_matrix(q: Quiver, x: int, v: int, w: int, path: Path) -> RationalMatrix:
    """Matrix at vertex x of the morphism I_w -> I_v attached to a path v ~> w.

    It is the transpose of "compose with the path": paths x ~> v map to
    paths x ~> w by appending the path's labels.
    """
    table = q.context.paths
    rows_paths = table[(x, v)]
    cols_paths = table[(x, w)]
    index = {p: k for k, p in enumerate(cols_paths)}
    entries = [[Fraction(0)] * len(cols_paths) for _ in range(len(rows_paths))]
    for r, sigma in enumerate(rows_paths):
        target = sigma + path
        k = index.get(target)
        if k is not None:
            entries[r][k] = Fraction(1)
    return RationalMatrix(len(rows_paths), len(cols_paths), tuple(tuple(row) for row in entries))


def nakayama_of_inclusion(pres: ProjPresentation) -> tuple[Representation, Representation,
                                                           list[RationalMatrix]]:
    """Apply the Nakayama functor to P1 -> P0, giving nu(P1) -> nu(P0)."""
    q = pres.module.quiver
    table = q.context.paths
    nu1 = direct_sum([injective(q, w) for w in pres.slots1]) if pres.slots1 else zero_rep(q)
    nu0 = direct_sum([injective(q, v) for v in pres.slots0]) if pres.slots0 else zero_rep(q)
    mats: list[RationalMatrix] = []
    for x in q.vertices:
        col_off = []
        total_cols = 0
        for w in pres.slots1:
            col_off.append(total_cols)
            total_cols += len(table[(x, w)])
        row_off = []
        total_rows = 0
        for v in pres.slots0:
            row_off.append(total_rows)
            total_rows += len(table[(x, v)])
        block = [[Fraction(0)] * total_cols for _ in range(total_rows)]
        for (j, i), terms in pres.iota.items():
            v = pres.slots0[i]
            w = pres.slots1[j]
            for path, coeff in terms:
                mat = _injective_path_matrix(q, x, v, w, path)
                for r in range(mat.rows):
                    row = block[row_off[i] + r]
                    for c in range(mat.cols):
                        if mat.entries[r][c]:
                            row[col_off[j] + c] += coeff * mat.entries[r][c]
        mats.append(RationalMatrix(total_rows, total_cols,
                                   tuple(tuple(row) for row in block)))
    return nu1, nu0, mats


def tau(m: Representation) -> Representation:
    """AR translate: kernel of the Nakayama functor on the minimal
    presentation.  Projectives are sent to the zero representation."""
    if m.is_zero():
        return zero_rep(m.quiver)
    pres = minimal_presentation(m)
    if not pres.slots1:
        return zero_rep(m.quiver)
    nu1, nu0, mats = nakayama_of_inclusion(pres)
    out, _incl = kernel_representation(nu1, nu0, mats)
    return out


def tau_inv(m: Representation) -> Representation:
    """Inverse translate via duality: reverse arrows, apply tau, dualize back."""
    if m.is_zero():
        return zero_rep(m.quiver)
    return dual_representation(tau(dual_representation(m)))


def tau_power(m: Representation, k: int) -> Representation:
    """tau^k for k >= 0, tau^{-k} via tau_inv for k < 0; stops at zero."""
    step = tau if k >= 0 else tau_inv
    out = m
    for _ in range(abs(k)):
        if out.is_zero():
            return out
        out = step(out)
    return out


def _match_vertex(q: Quiver, dims, kind: str) -> Optional[int]:
    ctx = q.context
    return (ctx.proj_vertex if kind == "P" else ctx.inj_vertex).get(tuple(dims))


def _orbit_walk(m: Representation, kind: str, cap: int, dim_budget: int
                ) -> Iterator[Optional[ArPosition]]:
    """Walk the tau orbit (kind "P") or the tau_inv orbit (kind "I") of m,
    one step per item: None while the orbit goes on, then its position when
    it dies.  The walk stops after cap + 1 steps or at a module beyond the
    dimension budget."""
    q = m.quiver
    step = tau if kind == "P" else tau_inv
    current = m
    for k in range(cap + 1):
        if current.total_dim > dim_budget:
            return
        nxt = step(current)
        if nxt.is_zero():
            v = _match_vertex(q, current.dims, kind)
            if v is None:
                raise ArithmeticError("orbit died on a non-(co)generator; "
                                      "module was not indecomposable?")
            yield ArPosition("Preprojective" if kind == "P" else "Preinjective", v, k)
            return
        yield None
        current = nxt


def ar_position(m: Representation, cap: int = 64, dim_budget: int = 4096) -> ArPosition:
    """Trichotomy for an indecomposable module (caller certifies indecomposability).

    Over a Euclidean quiver the defect (the radical linear form of the Euler
    form) picks the terminating direction up front: negative means the tau
    orbit ends in a projective, positive means the tau_inv orbit ends in an
    injective, zero certifies regular.  Elsewhere both orbits are iterated
    structurally within the cap.
    """
    if m.is_zero():
        raise ValueError("zero module has no AR position")
    q = m.quiver
    if classify_type(q).tag == "Euclidean":
        d = defect(q, m.dims)
        if d == 0:
            return ArPosition("Regular")
        found = next(filter(None, _orbit_walk(m, "P" if d < 0 else "I", cap, dim_budget)),
                     None)
        if found is None:
            raise ArithmeticError("defect promised a terminating orbit but the "
                                  "cap was exceeded; was the module indecomposable?")
        return found
    # alternate the directions so a terminating orbit is found without first
    # exhausting the budget on the diverging one: a tau step, then a tau_inv
    # step, until one walk finds the position or both have stopped
    walks = [_orbit_walk(m, "P", cap, dim_budget), _orbit_walk(m, "I", cap, dim_budget)]
    while walks:
        for walk in list(walks):
            found = next(walk, walk)  # the walk itself marks its end
            if found is walk:
                walks.remove(walk)
            elif found is not None:
                return found
    raise CapExceededError(
        "neither tau orbit terminated within the cap; on a wild quiver this "
        "is regular-or-unknown")


def auslander_check(x: Representation, y: Representation) -> CheckReport:
    """Verify dim Ext^1(x,y) = dim Hom(y, tau x) = dim Hom(tau^- y, x)."""
    report = CheckReport("auslander-formula")
    ext = ext1_dim(x, y)
    tx = tau(x)
    hom_right = 0 if tx.is_zero() else hom_dim(y, tx)
    report.checked += 1
    if ext != hom_right:
        report.add("ext1 = hom(Y, tau X)", value=(ext, hom_right))
    ty = tau_inv(y)
    hom_left = 0 if ty.is_zero() else hom_dim(ty, x)
    report.checked += 1
    if ext != hom_left:
        report.add("ext1 = hom(tau^- Y, X)", value=(ext, hom_left))
    return report
