"""The Auslander-Reiten translate as an explicit construction.

tau is computed structurally: take the minimal projective presentation
0 -> P1 -> P0 -> M -> 0, apply the Nakayama functor nu = D Hom(-, A), and
take the kernel of nu(P1) -> nu(P0).  nu sends P_i to I_i, and at vertex x
its map is the transpose of Hom(iota, P_x), the matrix that the presentation
route to Hom and Ext^1 builds (``reps.presentation_matrix``).  tau_inv is the
dual construction, realized through the standard duality with the opposite
quiver.  The Coxeter transform is only ever a cross-check on dimension
vectors, never the definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .quiver import Quiver, classify_type, defect
from .report import CheckReport
from .reps import (Representation, direct_sum, dual_representation, ext1_dim,
                   hom_dim, injective, kernel_representation,
                   minimal_presentation, presentation_matrix, projective,
                   zero_rep)


class CapExceededError(RuntimeError):
    """Raised when an orbit iteration cannot settle within the configured cap."""


@dataclass(frozen=True)
class ArPosition:
    """Location in the AR quiver: tau^{-k} P_i, tau^k I_i, or regular."""

    kind: str  # "Preprojective" | "Preinjective" | "Regular"
    vertex: Optional[int] = None
    power: int = 0


def tau(m: Representation) -> Representation:
    """AR translate: kernel of the Nakayama functor on the minimal
    presentation.  Projectives are sent to the zero representation."""
    q = m.quiver
    if m.is_zero():
        return zero_rep(q)
    pres = minimal_presentation(m)
    if not pres.slots1:
        return zero_rep(q)
    # nu = D Hom(-, A), so nu(iota) at x is the transpose of Hom(iota, P_x);
    # P_x at v and I_v at x share the basis of paths x ~> v
    mats = [presentation_matrix(pres, projective(q, x)).transpose() for x in q.vertices]
    out, _incl = kernel_representation(direct_sum([injective(q, w) for w in pres.slots1]), mats)
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
