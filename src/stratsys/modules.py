"""Module descriptors and a fast exact Hom/Ext dimension engine.

Named modules (tau-orbits of projectives and injectives, tube points) are
handled symbolically: their dimension vectors come from Coxeter powers, and
dim Hom over the hereditary path algebra is decided in one step, with
dim Ext^1(X, Y) = dim Hom(X, Y) - <dim X, dim Y> by the Euler identity.

  * A pair with a preprojective or preinjective side is directing: nonzero
    Hom(X, Y) and Ext^1(X, Y) = D Hom(Y, tau X) would close a cycle
    X -> Y -> tau X -> ... -> X.  So with e = <dim X, dim Y> the pair is
    (max(e, 0), max(-e, 0)).
  * Points of two different tubes are orthogonal: (0, 0).
  * Two points of one tube of rank r: a standard stable tube is uniserial,
    so dim Hom(E_i[k], E_j[l]) is the number of lengths c <= min(k, l)
    with c = i + k - j (mod r), one for each image E_j[c] (rays and corays,
    Ringel LNM 1099, 3.1), counted in closed form.
  * Two ``ROOT`` modules whose vectors sit in one complete exceptional
    sequence that the quiver's braid walk reached (``BraidWalk.paired``)
    form an exceptional pair in one order or the other, and Hom and Ext^1
    of an exceptional pair are not both nonzero (Happel-Ringel): the
    directing-pair formula again.

Only pairs with an explicit or a ``ROOT`` side, but for two walked ``ROOT``
members, are computed structurally, on materialized representations, so a
tube point is built only when it meets such a module.
The rules are cross-validated against that structure in the test suite.
Without them the generalized Kronecker orbit checks would need matrices
with ~10^5 rows, which no structural checker can materialize.

A ``ROOT`` descriptor is "the exceptional module on dimension vector d".
Over a hereditary algebra an exceptional module is determined by its
dimension vector up to isomorphism (Crawley-Boevey, "Exceptional sequences
of representations of quivers", 1993), so
the vector alone is a pedigree: a search can key its facts on it, and the
module is built (by ``exceptional_of_dims``) only the first time a
structural question needs it.  Braid mutation is the one builder: a
vector the braid walk reaches (``QuiverContext.walk``) is built along the
walk (``reps.mutate``), as a universal extension in the Ext^1 case and as
the kernel or cokernel of the canonical map in the Hom case, and certified
by its dimension vector and dim End = 1.  On a vector the walk does not
reach within its bounds, ``materialize`` raises
``NoExceptionalModuleError`` carrying the vector.

Every memo of the engine lives in the quiver's ``QuiverContext``: the
Coxeter-powered orbit dimension vectors (``orbit_dims``), the materialized
orbit modules (``orbit_reps``), the module built per ``ROOT`` vector
(``root_reps``, written by ``_braid_module`` alone) and one (dim Hom,
dim Ext^1) entry per pedigreed pair (``hom_ext``), which ``pair_hom_ext``
alone reads and writes: one lookup there answers a pair, and ``pair_hom``
and ``pair_ext`` are its two halves.  Explicit representations are never
memoized.
"""

from __future__ import annotations

from typing import Optional

from .apq import TubeLabel, TubePoint, apq_algebra
from .artheory import tau, tau_inv
from .quiver import DimVector, Quiver, euler_form
from .record import Frozen
from .reps import (Representation, end_dim, hom_dim, injective, mutate, projective, simple,
                   zero_rep)

MATERIALIZE_CAP = 4000
ORBIT_CAP = 10_000  # highest tau power whose orbit dimension vectors are grown


class TooLargeError(RuntimeError):
    """A structural computation would need an infeasibly large representation."""


class NoExceptionalModuleError(RuntimeError):
    """The braid walk did not reach a ``ROOT`` descriptor's vector."""

    def __init__(self, dims: DimVector):
        super().__init__(f"the braid walk did not reach the dimension vector {dims} "
                         "within its bounds")
        self.dims = dims


PREPROJ = "tauP"   # tau^{-power} P_vertex
PREINJ = "tauI"    # tau^{power} I_vertex
TUBE = "tube"      # point of an A~(p,q) tube
ROOT = "root"      # the exceptional module on a dimension vector
PLAIN = "plain"    # explicit representation, no pedigree


class ModuleRef(Frozen):
    """A module given either symbolically (with a tau-orbit, tube or
    dimension-vector pedigree) or as an explicit representation."""

    __slots__ = ("quiver", "kind", "vertex", "power", "apq", "point", "rep_obj", "dims")

    def __init__(self, quiver: Quiver, kind: str, vertex: Optional[int] = None, power: int = 0,
                 apq: Optional[tuple[int, int]] = None, point: Optional[TubePoint] = None,
                 rep_obj: Optional[Representation] = None, dims: Optional[DimVector] = None):
        self._init(quiver, kind, vertex, power, apq, point, rep_obj, dims)

    def describe(self) -> str:
        if self.kind == PREPROJ:
            return f"P_{self.vertex}" if self.power == 0 else f"tau^-{self.power} P_{self.vertex}"
        if self.kind == PREINJ:
            return f"I_{self.vertex}" if self.power == 0 else f"tau^{self.power} I_{self.vertex}"
        if self.kind == TUBE:
            pt = self.point
            lvl = "" if pt.level == 1 else f"[{pt.level}]"
            return f"E^({pt.tube.short()})_{pt.index}{lvl}"
        return f"rep{self.dims if self.kind == ROOT else self.rep_obj.dims}"


def ref_preproj(q: Quiver, vertex: int, power: int = 0) -> ModuleRef:
    return ModuleRef(q, PREPROJ, vertex=vertex, power=power)


def ref_preinj(q: Quiver, vertex: int, power: int = 0) -> ModuleRef:
    return ModuleRef(q, PREINJ, vertex=vertex, power=power)


def ref_tube(p: int, q: int, label: TubeLabel, index: int, level: int = 1) -> ModuleRef:
    alg = apq_algebra(p, q)
    rank = alg.tube_rank(label)
    if index > rank:
        raise ValueError(f"mouth index {index} out of range for rank {rank}")
    return ModuleRef(alg.quiver, TUBE, apq=(p, q), point=TubePoint(label, index, level))


def ref_plain(rep: Representation) -> ModuleRef:
    return ModuleRef(rep.quiver, PLAIN, rep_obj=rep)


def ref_root(q: Quiver, dims) -> ModuleRef:
    """The exceptional module on ``dims``, built when first materialized."""
    return ModuleRef(q, ROOT, dims=tuple(dims))


# ---------------------------------------------------------------------------
# dimension vectors and orbit modules (memoized in the quiver's context)
# ---------------------------------------------------------------------------

def _orbit_dims(q: Quiver, kind: str, vertex: int, power: int) -> DimVector:
    """Coxeter-powered dimension vector of tau^{-k} P_v or tau^k I_v.

    Once the orbit dies (a Coxeter iterate leaves the positive cone, which
    happens exactly when the previous module was injective resp. projective)
    every later power is the zero module; over Dynkin quivers the raw
    Coxeter powers would cycle back to positive vectors, so death is
    tracked cumulatively (the Coxeter image of zero is zero).  A cached
    orbit is never mutated: a longer one is grown on a local copy and stored
    whole, so concurrent callers only ever read complete prefixes.  The
    stored orbit grows with the power (its entries can grow exponentially),
    so a power beyond ``ORBIT_CAP`` raises ``TooLargeError`` up front.
    """
    ctx = q.context
    key = (kind, vertex)
    orbit = ctx.orbit_dims.get(key, ())
    if len(orbit) <= power:
        if power > ORBIT_CAP:
            name = "P" if kind == PREPROJ else "I"
            raise TooLargeError(f"the tau-orbit of {name}_{vertex} up to power {power} "
                                f"is beyond the cap {ORBIT_CAP}")
        start = ctx.proj_dims if kind == PREPROJ else ctx.inj_dims
        grown = list(orbit) or [start[q.index(vertex)]]
        phi = ctx.coxeter
        while len(grown) <= power:
            nxt = phi.apply_inverse(grown[-1]) if kind == PREPROJ else phi.apply(grown[-1])
            grown.append(q.zero_vector() if any(x < 0 for x in nxt) else nxt)
        orbit = ctx.orbit_dims[key] = tuple(grown)
    return orbit[power]


def ref_dims(ref: ModuleRef) -> DimVector:
    if ref.kind == PREPROJ or ref.kind == PREINJ:
        return _orbit_dims(ref.quiver, ref.kind, ref.vertex, ref.power)
    if ref.kind == TUBE:
        return apq_algebra(*ref.apq).tube_point_dims(ref.point)
    if ref.kind == ROOT:
        return ref.dims
    return ref.rep_obj.dims


def ref_total_dim(ref: ModuleRef) -> int:
    return sum(ref_dims(ref))


def ref_key(ref: ModuleRef):
    """Key of a pedigreed descriptor inside its quiver's context."""
    if ref.kind == TUBE:
        return (TUBE, ref.point)
    if ref.kind == ROOT:
        return (ROOT, ref.dims)
    return (ref.kind, ref.vertex, ref.power)


def _orbit_rep(q: Quiver, kind: str, vertex: int, power: int) -> Representation:
    """tau^{-power} P_vertex (kind PREPROJ) or tau^{power} I_vertex (PREINJ),
    one translate of the member before it, checked against the Coxeter
    prediction."""
    ctx = q.context
    key = (kind, vertex, power)
    rep = ctx.orbit_reps.get(key)
    if rep is not None:
        ctx.hits["orbit_reps"] += 1
        return rep
    ctx.misses["orbit_reps"] += 1
    if power == 0:
        rep = projective(q, vertex) if kind == PREPROJ else injective(q, vertex)
    else:
        prev = _orbit_rep(q, kind, vertex, power - 1)
        rep = tau_inv(prev) if kind == PREPROJ else tau(prev)
        if rep.dims != _orbit_dims(q, kind, vertex, power):
            raise ArithmeticError("the orbit drifted from the Coxeter prediction")
    ctx.orbit_reps[key] = rep
    return rep


def _braid_module(q: Quiver, dims: DimVector) -> Representation:
    """The exceptional module on a vector the braid walk reached, built
    along the walk's recipe (``reps.mutate``) from the modules of the pair it
    came from, and certified by its dimension vector and dim End = 1.  Kept
    in ``root_reps``, whose one writer this is."""
    ctx = q.context
    rep = ctx.root_reps.get(dims)
    if rep is None:
        recipe = ctx.walk.recipes[dims]
        if recipe is None:
            rep = simple(q, q.vertices[dims.index(1)])
        else:
            move, e, f = recipe
            rep = mutate(_braid_module(q, e), _braid_module(q, f), move == "L")
            # <d, d> = 1 and dim End = 1 give dim Ext^1 = 0
            if rep.dims != dims or end_dim(rep) != 1:
                raise ArithmeticError(f"the braid move built no exceptional module on {dims}")
        ctx.root_reps[dims] = rep
    return rep


def exceptional_of_dims(q: Quiver, dims) -> Optional[Representation]:
    """The exceptional module on a unit-form root that the quiver's braid
    walk reaches (``QuiverContext.walk``), built along the walk; None on any
    other vector, which a spent walk answers at once."""
    dims = tuple(dims)
    if euler_form(q, dims, dims) != 1 or not q.context.walk.reached(dims):
        return None
    return _braid_module(q, dims)


def materialize(ref: ModuleRef) -> Representation:
    """Explicit representation for the descriptor; exact but size-guarded.

    An orbit module is built from every member of its orbit before it, so
    ``MATERIALIZE_CAP`` bounds the total dimension of those members together."""
    if ref.kind == PLAIN:
        return ref.rep_obj
    dims = ref_dims(ref)
    if not any(dims):
        return zero_rep(ref.quiver)
    if ref.kind in (TUBE, ROOT):
        total = sum(dims)
    else:
        total = sum(sum(_orbit_dims(ref.quiver, ref.kind, ref.vertex, k))
                    for k in range(ref.power + 1))
    if total > MATERIALIZE_CAP:
        raise TooLargeError(f"{ref.describe()} needs modules of total dimension {total}, "
                            f"beyond the cap {MATERIALIZE_CAP}")
    if ref.kind == TUBE:
        p, q = ref.apq
        return apq_algebra(p, q).tube_point(ref.point)
    if ref.kind == ROOT:
        rep = ref.quiver.context.root_reps.get(dims) or exceptional_of_dims(ref.quiver, dims)
        if rep is None:
            raise NoExceptionalModuleError(dims)
        return rep
    # build the orbit upwards, so that each _orbit_rep call finds the member
    # before it memoized and the recursion stays one level deep
    for k in range(ref.power + 1):
        rep = _orbit_rep(ref.quiver, ref.kind, ref.vertex, k)
    return rep


# ---------------------------------------------------------------------------
# the dimension engine
# ---------------------------------------------------------------------------

def pair_hom_ext(a: ModuleRef, b: ModuleRef) -> tuple[int, int]:
    """(dim Hom(a, b), dim Ext^1(a, b)), the Ext dimension by the Euler
    identity dim Ext^1 = dim Hom - <dim a, dim b>.  Hom is decided in one
    step: pairs with an explicit or a ``ROOT`` side are structural, but for
    two ``ROOT`` members of one walked exceptional sequence; two points of
    one tube are counted by ``_tube_hom`` and two different tubes are
    orthogonal; and every other pair has a directing side.  Where the pair
    is directing or walked, its Hom and Ext^1 are not both nonzero.  The
    one reader and the one writer of ``hom_ext``: a pedigreed pair is
    answered once and its checked entry stays in the quiver's context."""
    q = a.quiver
    if b.quiver is not q and b.quiver != q:
        raise ValueError("modules live over different quivers")
    key = None
    if a.kind != PLAIN and b.kind != PLAIN:
        ctx = q.context
        key = (ref_key(a), ref_key(b))
        entry = ctx.hom_ext.get(key)
        if entry is not None:
            ctx.hits["hom_ext"] += 1
            return entry
        ctx.misses["hom_ext"] += 1
    dims_a = ref_dims(a)
    dims_b = ref_dims(b)
    euler = euler_form(q, dims_a, dims_b)
    if not any(dims_a) or not any(dims_b):
        hom = 0
    elif a.kind == b.kind == TUBE:
        hom = _tube_hom(a, b) if a.point.tube == b.point.tube else 0
    elif a.kind == b.kind == ROOT and a != b and q.context.walk.paired(a.dims, b.dims):
        # two members of one exceptional sequence: Hom and Ext^1 are not
        # both nonzero (Happel-Ringel)
        hom = max(euler, 0)
    elif a.kind in (PLAIN, ROOT) or b.kind in (PLAIN, ROOT):
        hom = _structural_hom(a, b)
    else:
        hom = max(euler, 0)
    entry = (hom, hom - euler)
    if entry[1] < 0:
        raise ArithmeticError("negative Ext dimension out of the engine")
    if key is not None:
        ctx.hom_ext[key] = entry
    return entry


def pair_hom(a: ModuleRef, b: ModuleRef) -> int:
    """dim Hom(a, b), the first half of ``pair_hom_ext``."""
    return pair_hom_ext(a, b)[0]


def pair_ext(a: ModuleRef, b: ModuleRef) -> int:
    """dim Ext^1(a, b), the second half of ``pair_hom_ext``."""
    return pair_hom_ext(a, b)[1]


def _tube_hom(a: ModuleRef, b: ModuleRef) -> int:
    """dim Hom(E_i[k], E_j[l]) for two points of one tube of rank r.

    The tube is standard and uniserial: E_i[k] has regular socle E_i and
    regular top E_{i+k-1} (indices mod r, from 1).  The image of a nonzero
    map is a quotient of the source with its top, E_{i+k-c}[c], and a
    submodule of the target with its socle, E_j[c]; each such length c
    gives one dimension (Ringel, LNM 1099, 3.1).  So Hom counts the
    c <= min(k, l) with c = i + k - j (mod r), in closed form, since a
    level may be huge."""
    rank = apq_algebra(*a.apq).tube_rank(a.point.tube)
    x, y = a.point, b.point
    first = (x.index + x.level - y.index - 1) % rank + 1
    top = min(x.level, y.level)
    return 0 if top < first else (top - first) // rank + 1


def _structural_hom(a: ModuleRef, b: ModuleRef) -> int:
    x, y = materialize(a), materialize(b)
    if a.kind == ROOT and a == b:
        # built means certified: <d, d> = 1 and dim End = 1, so dim Ext^1 = 0
        return 1
    return hom_dim(x, y)


# ---------------------------------------------------------------------------
# derived predicates
# ---------------------------------------------------------------------------

def ref_is_exceptional(ref: ModuleRef) -> bool:
    return pair_hom_ext(ref, ref) == (1, 0)
