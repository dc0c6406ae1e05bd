"""Module descriptors and a fast exact Hom/Ext dimension engine.

Named modules (tau-orbits of projectives and injectives, tube points) are
handled symbolically: their dimension vectors come from Coxeter powers, and
Hom/Ext dimensions are reduced by exact hereditary identities

  * Hom(P_i, M) = dim M_i and Hom(M, I_j) = dim M_j        (Yoneda),
  * Hom(tau X, tau Y) = Hom(X, Y) away from projectives,
  * Hom(tau^- X, Y) = Hom(X, tau Y) away from injectives/projectives,
  * dim Ext^1(X, Y) = dim Hom(X, Y) - <dim X, dim Y>        (Euler),
  * dim Ext^1(X, Y) = dim Hom(Y, tau X)                     (Auslander),

to small structural computations on materialized representations.  Each
identity is cross-validated against brute-force structure in the test suite.
Without this reduction the generalized Kronecker orbit checks would need
matrices with ~10^5 rows, which no structural checker can materialize.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .apq import TubeLabel, TubePoint, apq_algebra, tube_point_dim_vector
from .artheory import tau, tau_inv
from .quiver import (CoxeterTransform, DimVector, Quiver, coxeter_transform,
                     euler_form, injective_dim_vector, projective_dim_vector)
from .reps import Representation, hom_dim, injective, projective, zero_rep

MATERIALIZE_CAP = 4000


class TooLargeError(RuntimeError):
    """A structural computation would need an infeasibly large representation."""


PREPROJ = "tauP"   # tau^{-power} P_vertex
PREINJ = "tauI"    # tau^{power} I_vertex
TUBE = "tube"      # point of an A~(p,q) tube
PLAIN = "plain"    # explicit representation, no pedigree


@dataclass(frozen=True)
class ModuleRef:
    """A module given either symbolically (with a tau-orbit or tube pedigree)
    or as an explicit representation."""

    quiver: Quiver
    kind: str
    vertex: Optional[int] = None
    power: int = 0
    apq: Optional[tuple[int, int]] = None
    point: Optional[TubePoint] = None
    rep_obj: Optional[Representation] = None

    def describe(self) -> str:
        if self.kind == PREPROJ:
            return f"P_{self.vertex}" if self.power == 0 else f"tau^-{self.power} P_{self.vertex}"
        if self.kind == PREINJ:
            return f"I_{self.vertex}" if self.power == 0 else f"tau^{self.power} I_{self.vertex}"
        if self.kind == TUBE:
            pt = self.point
            lvl = "" if pt.level == 1 else f"[{pt.level}]"
            return f"E^({pt.tube.short()})_{pt.index}{lvl}"
        return f"rep{self.rep_obj.dims}"


def ref_preproj(q: Quiver, vertex: int, power: int = 0) -> ModuleRef:
    return ModuleRef(q, PREPROJ, vertex=vertex, power=power)


def ref_preinj(q: Quiver, vertex: int, power: int = 0) -> ModuleRef:
    return ModuleRef(q, PREINJ, vertex=vertex, power=power)


def ref_tube(p: int, q: int, label: TubeLabel, index: int, level: int = 1) -> ModuleRef:
    alg = apq_algebra(p, q)
    return ModuleRef(alg.quiver, TUBE, apq=(p, q), point=TubePoint(label, index, level))


def ref_plain(rep: Representation) -> ModuleRef:
    return ModuleRef(rep.quiver, PLAIN, rep_obj=rep)


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------

_ORBIT_REPS: dict[tuple, Representation] = {}
_HOM_CACHE: dict[tuple, int] = {}


@functools.cache
def coxeter_of(q: Quiver) -> CoxeterTransform:
    return coxeter_transform(q)


@functools.cache
def _proj_dims(q: Quiver) -> dict[DimVector, int]:
    return {projective_dim_vector(q, v): v for v in q.vertices}


@functools.cache
def _inj_dims(q: Quiver) -> dict[DimVector, int]:
    return {injective_dim_vector(q, v): v for v in q.vertices}


_ORBIT_DIMS: dict[tuple, list[DimVector]] = {}


def _orbit_dims(q: Quiver, kind: str, vertex: int, power: int) -> DimVector:
    """Coxeter-powered dimension vector of tau^{-k} P_v or tau^k I_v.

    Once the orbit dies (a Coxeter iterate leaves the positive cone, which
    happens exactly when the previous module was injective resp. projective)
    every later power is the zero module; over Dynkin quivers the raw
    Coxeter powers would cycle back to positive vectors, so death is
    tracked cumulatively.
    """
    key = (q, kind, vertex)
    orbit = _ORBIT_DIMS.setdefault(key, [])
    if not orbit:
        base = (projective_dim_vector(q, vertex) if kind == PREPROJ
                else injective_dim_vector(q, vertex))
        orbit.append(base)
    phi = coxeter_of(q)
    zero = q.zero_vector()
    while len(orbit) <= power:
        last = orbit[-1]
        if last == zero:
            orbit.append(zero)
            continue
        nxt = phi.apply_inverse(last) if kind == PREPROJ else phi.apply(last)
        orbit.append(zero if any(x < 0 for x in nxt) else nxt)
    return orbit[power]


def ref_dims(ref: ModuleRef) -> DimVector:
    if ref.kind == PREPROJ or ref.kind == PREINJ:
        return _orbit_dims(ref.quiver, ref.kind, ref.vertex, ref.power)
    if ref.kind == TUBE:
        p, q = ref.apq
        return tube_point_dim_vector(p, q, ref.point)
    return ref.rep_obj.dims


def ref_total_dim(ref: ModuleRef) -> int:
    return sum(ref_dims(ref))


def ref_key(ref: ModuleRef):
    if ref.kind == PLAIN:
        return (PLAIN, id(ref.rep_obj))
    if ref.kind == TUBE:
        return (TUBE, ref.apq, ref.point)
    return (ref.kind, ref.quiver, ref.vertex, ref.power)


def materialize(ref: ModuleRef, cap: int = MATERIALIZE_CAP) -> Representation:
    """Explicit representation for the descriptor; exact but size-guarded."""
    if ref.kind == PLAIN:
        return ref.rep_obj
    total = ref_total_dim(ref)
    if total > cap:
        raise TooLargeError(
            f"{ref.describe()} has total dimension {total}, beyond the cap {cap}")
    if total == 0:
        return zero_rep(ref.quiver)
    key = ref_key(ref)
    cached = _ORBIT_REPS.get(key)
    if cached is not None:
        return cached
    if ref.kind == TUBE:
        p, q = ref.apq
        rep = apq_algebra(p, q).tube_point(ref.point)
    elif ref.kind == PREPROJ:
        if ref.power == 0:
            rep = projective(ref.quiver, ref.vertex)
        else:
            prev = materialize(ModuleRef(ref.quiver, PREPROJ, vertex=ref.vertex,
                                         power=ref.power - 1), cap)
            rep = tau_inv(prev)
            if rep.dims != ref_dims(ref):
                raise ArithmeticError("tau_inv drifted from the Coxeter prediction")
    else:
        if ref.power == 0:
            rep = injective(ref.quiver, ref.vertex)
        else:
            prev = materialize(ModuleRef(ref.quiver, PREINJ, vertex=ref.vertex,
                                         power=ref.power - 1), cap)
            rep = tau(prev)
            if rep.dims != ref_dims(ref):
                raise ArithmeticError("tau drifted from the Coxeter prediction")
    _ORBIT_REPS[key] = rep
    return rep


# ---------------------------------------------------------------------------
# tau on descriptors
# ---------------------------------------------------------------------------

def ref_tau(ref: ModuleRef, steps: int = 1) -> Optional[ModuleRef]:
    """tau^steps on a pedigreed descriptor (None when it hits zero or the
    descriptor has no pedigree)."""
    if steps == 0:
        return ref
    if ref.kind == PREPROJ:
        power = ref.power - steps
        if power < 0:
            return None  # a projective died along the way
        return ModuleRef(ref.quiver, PREPROJ, vertex=ref.vertex, power=power)
    if ref.kind == PREINJ:
        power = ref.power + steps
        if power < 0:
            return None
        return ModuleRef(ref.quiver, PREINJ, vertex=ref.vertex, power=power)
    if ref.kind == TUBE:
        p, q = ref.apq
        alg = apq_algebra(p, q)
        return ModuleRef(ref.quiver, TUBE, apq=ref.apq,
                         point=alg.rotate_point(ref.point, steps))
    return None


def _is_projective_dims(q: Quiver, dims: DimVector) -> Optional[int]:
    return _proj_dims(q).get(tuple(dims))


def _is_injective_dims(q: Quiver, dims: DimVector) -> Optional[int]:
    return _inj_dims(q).get(tuple(dims))


# ---------------------------------------------------------------------------
# the dimension engine
# ---------------------------------------------------------------------------

def pair_hom(a: ModuleRef, b: ModuleRef) -> int:
    """dim Hom(a, b), reduced symbolically where pedigrees allow."""
    if a.quiver != b.quiver:
        raise ValueError("modules live over different quivers")
    key = None
    if a.kind != PLAIN and b.kind != PLAIN:
        key = (ref_key(a), ref_key(b))
        cached = _HOM_CACHE.get(key)
        if cached is not None:
            return cached
    value = _pair_hom(a, b)
    if key is not None:
        _HOM_CACHE[key] = value
    return value


def pair_ext(a: ModuleRef, b: ModuleRef, hom: Optional[int] = None) -> int:
    """dim Ext^1(a, b) by the Euler identity on top of pair_hom, or on top of
    ``hom`` when the caller already holds dim Hom(a, b)."""
    if hom is None:
        hom = pair_hom(a, b)
    value = hom - euler_form(a.quiver, ref_dims(a), ref_dims(b))
    if value < 0:
        raise ArithmeticError("negative Ext dimension out of the engine")
    return value


def _structural_hom(a: ModuleRef, b: ModuleRef) -> int:
    return hom_dim(materialize(a), materialize(b))


def _pair_hom(a: ModuleRef, b: ModuleRef) -> int:
    q = a.quiver
    dims_a = ref_dims(a)
    dims_b = ref_dims(b)
    if not any(dims_a) or not any(dims_b):
        return 0
    # Yoneda endpoints (sound for pedigreed refs: exceptional modules and
    # tube points are determined by their dimension vectors)
    if a.kind != PLAIN:
        v = _is_projective_dims(q, dims_a)
        if v is not None:
            return int(dims_b[q.index(v)])
    if b.kind != PLAIN:
        v = _is_injective_dims(q, dims_b)
        if v is not None:
            return int(dims_a[q.index(v)])
    if a.kind == PREPROJ and b.kind == PREPROJ:
        return _hom_preproj_pair(a, b)
    if a.kind == PREINJ and b.kind == PREINJ:
        return _hom_preinj_pair(a, b)
    if a.kind == PREPROJ and b.kind == PREINJ:
        return _hom_preproj_to_preinj(a, b)
    if a.kind == PREINJ and b.kind == PREPROJ:
        return _hom_via_auslander(a, b)
    if a.kind == PREPROJ and b.kind == TUBE:
        return _hom_preproj_to_tube(a, b)
    if a.kind == TUBE and b.kind == PREPROJ:
        return _hom_via_auslander(a, b)
    if a.kind == TUBE and b.kind == PREINJ:
        return _hom_tube_to_preinj(a, b)
    if a.kind == PREINJ and b.kind == TUBE:
        return _hom_via_auslander(a, b)
    return _structural_hom(a, b)


def _shiftable_down(q: Quiver, ref: ModuleRef, steps: int, want: str) -> bool:
    """Check the orbit stays clear of injectives (want='noninj') or
    projectives (want='nonproj') while lowering the power by 1..steps."""
    for k in range(1, steps + 1):
        power = ref.power - k
        if power < 0:
            return False
        dims = _orbit_dims(q, ref.kind, ref.vertex, power)
        if want == "noninj" and _is_injective_dims(q, dims) is not None:
            return False
        if want == "nonproj" and _is_projective_dims(q, dims) is not None:
            return False
    return True


def _hom_preproj_pair(a: ModuleRef, b: ModuleRef) -> int:
    q = a.quiver
    c = min(a.power, b.power)
    if c and (not _shiftable_down(q, a, c, "noninj") or not _shiftable_down(q, b, c, "noninj")):
        return _structural_hom(a, b)
    a2 = ModuleRef(q, PREPROJ, vertex=a.vertex, power=a.power - c)
    b2 = ModuleRef(q, PREPROJ, vertex=b.vertex, power=b.power - c)
    if a2.power == 0:
        return int(ref_dims(b2)[q.index(a2.vertex)])  # Yoneda
    return _structural_hom(a2, b2)  # small gap: projective target


def _hom_preinj_pair(a: ModuleRef, b: ModuleRef) -> int:
    q = a.quiver
    c = min(a.power, b.power)
    if c and (not _shiftable_down(q, a, c, "nonproj") or not _shiftable_down(q, b, c, "nonproj")):
        return _structural_hom(a, b)
    a2 = ModuleRef(q, PREINJ, vertex=a.vertex, power=a.power - c)
    b2 = ModuleRef(q, PREINJ, vertex=b.vertex, power=b.power - c)
    if b2.power == 0:
        return int(ref_dims(a2)[q.index(b2.vertex)])  # dual Yoneda
    return _structural_hom(a2, b2)  # small gap: injective source


def _hom_preproj_to_preinj(a: ModuleRef, b: ModuleRef) -> int:
    # Hom(tau^-a P_i, tau^b I_j) = Hom(P_i, tau^{a+b} I_j), then Yoneda
    q = a.quiver
    ok = _shiftable_down(q, a, a.power, "noninj")
    if ok:
        for k in range(a.power):
            dims = _orbit_dims(q, PREINJ, b.vertex, b.power + k)
            if _is_projective_dims(q, dims) is not None:
                ok = False
                break
    if not ok:
        return _structural_hom(a, b)
    dims = _orbit_dims(q, PREINJ, b.vertex, a.power + b.power)
    return int(dims[q.index(a.vertex)])


def _hom_via_auslander(a: ModuleRef, b: ModuleRef) -> int:
    """hom(a,b) = <dim a, dim b> + ext(a,b) with ext(a,b) = hom(b, tau a)."""
    q = a.quiver
    dims_a = ref_dims(a)
    if _is_projective_dims(q, dims_a) is not None and a.kind != PLAIN:
        ext = 0
    else:
        ta = ref_tau(a, 1)
        if ta is None:
            return _structural_hom(a, b)
        ext = pair_hom(b, ta)
    return euler_form(q, dims_a, ref_dims(b)) + ext


def _hom_preproj_to_tube(a: ModuleRef, b: ModuleRef) -> int:
    # Hom(tau^-a P_i, R) = Hom(P_i, tau^a R), then Yoneda
    q = a.quiver
    if not _shiftable_down(q, a, a.power, "noninj"):
        return _structural_hom(a, b)
    rotated = ref_tau(b, a.power)
    return int(ref_dims(rotated)[q.index(a.vertex)])


def _hom_tube_to_preinj(a: ModuleRef, b: ModuleRef) -> int:
    # Hom(R, tau^b I_j) = Hom(tau^{-b} R, I_j), then dual Yoneda
    q = a.quiver
    if not _shiftable_down(q, b, b.power, "nonproj"):
        return _structural_hom(a, b)
    rotated = ref_tau(a, -b.power)
    return int(ref_dims(rotated)[q.index(b.vertex)])


# ---------------------------------------------------------------------------
# derived predicates
# ---------------------------------------------------------------------------

def ref_is_exceptional(ref: ModuleRef) -> bool:
    return pair_hom(ref, ref) == 1 and pair_ext(ref, ref) == 0


def same_module(a: ModuleRef, b: ModuleRef) -> bool:
    """Isomorphism test for exceptional descriptors: equal dimension vectors
    determine exceptional modules over a hereditary algebra."""
    return a.quiver == b.quiver and ref_dims(a) == ref_dims(b)
