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

``coxeter_position`` decides from dimension vectors: dim tau X = Phi(dim X)
for every indecomposable non-projective X (Dlab-Ringel), so once the side is
picked exactly (both sides over a Dynkin quiver, the defect over a Euclidean
one, the Perron forms over a wild one) the Coxeter orbit of dim M on it says
where M sits.  ``ar_position`` certifies that answer by one structural walk
of tau (or tau_inv) on that side.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .quiver import Quiver, defect
from .report import CheckReport
from .reps import (Representation, dual_representation, ext1_dim, hom_dim, injective,
                   minimal_presentation, presentation_matrix_to_projective,
                   sub_representation, zero_rep)


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


def coxeter_position(q: Quiver, dims: Sequence[int]) -> tuple[ArPosition, tuple]:
    """The AR position an indecomposable module of dimension vector ``dims``
    has, with the Coxeter orbit that names it (empty for Regular).

    The side is decided exactly, and the orbit on it is walked until it
    ends.  Dynkin: both sides, since Phi has finite order and no eigenvalue
    1, so every orbit of a positive vector ends; the side that ends first is
    taken, the tau side on a tie.  Euclidean: the defect picks the side
    (Phi^L shifts a vector by a multiple of delta with the defect's sign),
    and zero means Regular.  Wild: each side whose Perron form is negative
    (``QuiverContext.perron``); a preprojective has <y-, d> < 0, a
    preinjective <d, y+> < 0, and a regular indecomposable both positive,
    so both positive means Regular and a zero means no indecomposable.  A
    negative form tends to minus infinity along its side, so that orbit
    ends or grows past ``DIM_BUDGET``, which is refused.  Like the defect, a
    Regular answer presumes an indecomposable module.
    """
    if not any(dims):
        raise ValueError("zero module has no AR position")
    ctx = q.context
    tag = ctx.quiver_class.tag
    if tag == "Dynkin":
        sides = ("P", "I")
    elif tag == "Euclidean":
        d = defect(q, dims)
        sides = ("P",) if d < 0 else ("I",) if d > 0 else ()
    else:
        signs = ctx.perron.signs(dims)
        if 0 in signs:
            raise ArithmeticError(f"a Perron form vanishes on {tuple(dims)}, which no "
                                  "indecomposable module has")
        sides = tuple(side for side, sign in zip(("P", "I"), signs) if sign < 0)
    if not sides:
        return ArPosition("Regular"), ()
    orbits = [ctx.coxeter.ending_orbit(dims, side == "I", DIM_BUDGET) for side in sides]
    if None in orbits:
        raise ArithmeticError(f"a Coxeter orbit grew past the budget {DIM_BUDGET} before "
                              "it ended; was the module indecomposable?")
    orbit, side = min(zip(orbits, sides), key=lambda pair: len(pair[0]))  # tau on a tie
    vertex = (ctx.proj_vertex if side == "P" else ctx.inj_vertex).get(orbit[-1])
    if vertex is None:
        raise ArithmeticError("orbit died on a non-(co)generator; "
                              "module was not indecomposable?")
    kind = "Preprojective" if side == "P" else "Preinjective"
    return ArPosition(kind, vertex, len(orbit) - 1), orbit


def ar_position(m: Representation) -> ArPosition:
    """Trichotomy for an indecomposable module: ``coxeter_position`` of its
    dimension vector, certified by one structural walk on the side it
    names.  No structural work is done for a Regular answer."""
    position, orbit = coxeter_position(m.quiver, m.dims)
    if position.kind != "Regular":
        _certify(m, position, orbit)
    return position


def _certify(m: Representation, position: ArPosition, orbit: tuple) -> None:
    """Translate m once per predicted iterate: each image must have the
    predicted dimension vector, and the one after the last, that of P_i
    (or I_i), must be zero.  A projective summand in any earlier translate
    would break the next dimension vector, so m is tau^{-k} P_i (or tau^k
    I_i) even if it was handed in decomposable."""
    step = tau if position.kind == "Preprojective" else tau_inv
    current = m
    for predicted in orbit[1:] + (m.quiver.zero_vector(),):
        current = step(current)
        if current.dims != predicted:
            raise ArithmeticError("the tau orbit left its Coxeter prediction; "
                                  "module was not indecomposable?")


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
