"""The Auslander-Reiten translate as an explicit construction.

tau is computed structurally: take the minimal projective presentation
0 -> P1 -> P0 -> M -> 0, apply the Nakayama functor nu = D Hom(-, A), and
take the kernel of nu(P1) -> nu(P0).  The presentation is the one the
presentation route to Ext^1 built for the same module, kept on it.  nu
sends P_i to I_i, and at vertex x its map is the transpose of
Hom(iota, P_x), the matrix ``reps.presentation_matrix`` builds at P_x, read
off the path table (``reps.presentation_matrix_to_projective``).  The kernel
is taken summand by summand over the I_w, never over their built sum.
tau_inv is the dual construction, realized through the standard duality
with the opposite quiver.

``ar_position`` decides from dimension vectors: dim tau X = Phi(dim X) for
every indecomposable non-projective X (Dlab-Ringel), so the Coxeter orbit of
dim M says where M sits, and one structural walk of tau (or tau_inv) on the
side it picks certifies the answer.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .quiver import defect
from .report import CheckReport
from .reps import (Representation, dual_representation, ext1_dim, hom_dim, injective,
                   minimal_presentation, presentation_matrix_to_projective,
                   sub_representation, zero_rep)


class CapExceededError(RuntimeError):
    """Raised when an orbit iteration cannot settle within the configured cap."""


class ArPosition(NamedTuple):
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
    mats = [presentation_matrix_to_projective(pres, x).transpose() for x in q.vertices]
    out, _incl = sub_representation([injective(q, w) for w in pres.slots1], mats)
    return out


def tau_inv(m: Representation) -> Representation:
    """Inverse translate via duality: reverse arrows, apply tau, dualize back."""
    if m.is_zero():
        return zero_rep(m.quiver)
    return dual_representation(tau(dual_representation(m)))


def tau_power(m: Representation, k: int) -> Representation:
    """tau^k for k >= 0, tau^{-k} via tau_inv for k < 0; stops at zero.

    Before each step, raises ValueError when the entries of Phi(dim X)
    (Phi^-1 for tau_inv) sum to more than ``DIM_BUDGET``: dim tau X is
    Phi(dim X) plus dim I_i for each projective summand P_i of X (dually for
    tau_inv), so that sum is a lower bound on the next translate's size.
    """
    step = tau if k >= 0 else tau_inv
    phi = m.quiver.context.coxeter
    predict = phi.apply if k >= 0 else phi.apply_inverse
    out = m
    for i in range(abs(k)):
        if out.is_zero():
            return out
        bound = sum(predict(out.dims))
        if bound > DIM_BUDGET:
            raise ValueError(f"translate {i + 1} of {abs(k)} has total dimension at least "
                             f"{bound}, beyond the budget {DIM_BUDGET}")
        out = step(out)
    return out


DIM_BUDGET = 4096  # largest total dimension of a module a walk translates to, or from


def ar_position(m: Representation, cap: int = 64) -> ArPosition:
    """Trichotomy for an indecomposable module, read off the Coxeter orbits
    of its dimension vector and certified by one structural walk.

    The tau side ends at k when Phi^{k+1}(dim M) is the first iterate with a
    negative entry, the tau_inv side likewise with Phi^-1; each side looks at
    cap + 1 iterates within ``DIM_BUDGET``.  Over a Euclidean quiver the
    defect (the radical linear form of the Euler form) picks the side, and
    zero certifies regular; elsewhere the side that ends first is taken, the
    tau side on a tie.  No structural work is done unless a side ends.
    """
    if m.is_zero():
        raise ValueError("zero module has no AR position")
    q = m.quiver
    sides = ("P", "I")
    if q.context.quiver_class.tag == "Euclidean":
        d = defect(q, m.dims)
        if d == 0:
            return ArPosition("Regular")
        sides = ("P",) if d < 0 else ("I",)
    phi = q.context.coxeter
    orbits = {side: phi.ending_orbit(m.dims, cap + 1, side == "I", DIM_BUDGET)
              for side in sides}
    ended = [side for side in sides if orbits[side] is not None]
    if ended:
        side = min(ended, key=lambda side: len(orbits[side]))  # the first on a tie
        return _certify(m, side, orbits[side])
    if len(sides) == 1:
        raise ArithmeticError("defect promised a terminating orbit but the "
                              "cap was exceeded; was the module indecomposable?")
    raise CapExceededError(
        "neither tau orbit terminated within the cap; on a wild quiver this "
        "is regular-or-unknown")


def _certify(m: Representation, side: str, orbit: tuple) -> ArPosition:
    """Translate m once per predicted iterate: each image must have the
    predicted dimension vector, the last nonzero one that of P_i (side "P")
    or I_i, and the next one must be zero.  A projective summand in any
    earlier translate would break the next dimension vector, so m is
    tau^{-k} P_i (or tau^k I_i) even if it was handed in decomposable."""
    q = m.quiver
    ctx = q.context
    vertex = (ctx.proj_vertex if side == "P" else ctx.inj_vertex).get(orbit[-1])
    if vertex is None:
        raise ArithmeticError("orbit died on a non-(co)generator; "
                              "module was not indecomposable?")
    step = tau if side == "P" else tau_inv
    current = m
    for predicted in orbit[1:] + (q.zero_vector(),):
        current = step(current)
        if current.dims != predicted:
            raise ArithmeticError("the tau orbit left its Coxeter prediction; "
                                  "module was not indecomposable?")
    return ArPosition("Preprojective" if side == "P" else "Preinjective", vertex,
                      len(orbit) - 1)


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
