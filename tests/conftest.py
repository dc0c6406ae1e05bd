import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import pytest

from stratsys.apq import TUBE_INFTY, TUBE_ZERO, apq_algebra
from stratsys.artheory import tau, tau_inv
from stratsys.io_json import module_ref_to_json
from stratsys.linalg import RationalMatrix
from stratsys.quiver import Quiver, canonical_apq, euler_form, kronecker
from stratsys.reps import (Representation, ext1_dim, hom_ext_via_presentation, is_brick,
                           make_rep, minimal_presentation, supp)
from stratsys.systems import StratSystem, _exceptional_sequences
from stratsys.tubes import mouth_ss, regular_exceptional_pool

ENTRY_CHOICES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                 Fraction(-2), Fraction(1, 2)]


def random_representation(q: Quiver, rng: random.Random, max_dim: int = 3) -> Representation:
    dims = [rng.randint(0, max_dim) for _ in q.vertices]
    if not any(dims):
        dims[rng.randrange(len(dims))] = 1
    maps = {}
    for a in q.arrows:
        rows = dims[q.index(a.tgt)]
        cols = dims[q.index(a.src)]
        maps[a.label] = [[rng.choice(ENTRY_CHOICES) for _ in range(cols)]
                         for _ in range(rows)]
    return make_rep(q, dims, maps)


def hom_dim_via_presentation(x: Representation, y: Representation) -> int:
    """dim Hom(x, y) by the presentation route, a test oracle for ``hom_dim``."""
    if x.is_zero() or y.is_zero():
        return 0
    hom, _ = hom_ext_via_presentation(minimal_presentation(x), y)
    return hom


def coboundary_rows(x: Representation, y: Representation) -> tuple[list[dict[int, int]], int]:
    """The coboundary of the standard resolution entry by entry, with every
    entry of both arrow maps visited and the zero entries filtered out last:
    a test oracle for ``reps._coboundary``, rows, their order and the order
    of each row's keys."""
    q = x.quiver
    var_offset = []
    total = 0
    for k in range(q.n):
        var_offset.append(total)
        total += y.dims[k] * x.dims[k]

    def var(k: int, r: int, c: int) -> int:
        return var_offset[k] + r * x.dims[k] + c

    rows: list[dict[int, int]] = []
    for ai, a in enumerate(q.arrows):
        s, t = q.index(a.src), q.index(a.tgt)
        xa, ya = x.maps[ai].nums, y.maps[ai].nums
        xd, yd = x.maps[ai].den, y.maps[ai].den
        for r in range(y.dims[t]):
            for c in range(x.dims[s]):
                row: dict[int, int] = {}
                for k in range(x.dims[t]):
                    v = xa[k][c]
                    if v:
                        key = var(t, r, k)
                        row[key] = row.get(key, 0) + v * yd
                for k in range(y.dims[s]):
                    v = ya[r][k]
                    if v:
                        key = var(s, k, c)
                        row[key] = row.get(key, 0) - v * xd
                rows.append({k: v for k, v in row.items() if v})
    return rows, total


def projective_by_paths(q: Quiver, i: int) -> Representation:
    """P_i with basis at v the paths from i to v, each arrow appending
    itself, built path by path: a test oracle for ``reps.projective``."""
    table = q.context.paths
    basis = {v: table[(i, v)] for v in q.vertices}
    maps: dict[str, list[list[int]]] = {}
    for a in q.arrows:
        src_paths = basis[a.src]
        tgt_paths = basis[a.tgt]
        index = {p: k for k, p in enumerate(tgt_paths)}
        mat = [[0] * len(src_paths) for _ in range(len(tgt_paths))]
        for c, p in enumerate(src_paths):
            mat[index[p + (a.label,)]][c] = 1
        maps[a.label] = mat
    return make_rep(q, [len(basis[v]) for v in q.vertices], maps)


def injective_by_paths(q: Quiver, i: int) -> Representation:
    """I_i with basis at v the duals of the paths from v to i, each arrow
    the dual of precomposition, built path by path: a test oracle for
    ``reps.injective``."""
    table = q.context.paths
    basis = {v: table[(v, i)] for v in q.vertices}
    maps: dict[str, list[list[int]]] = {}
    for a in q.arrows:
        src_paths = basis[a.src]  # paths s ~> i
        tgt_paths = basis[a.tgt]  # paths t ~> i
        index = {p: k for k, p in enumerate(src_paths)}
        # entry[pi][pi'] = 1 iff pi' = a . pi
        mat = [[0] * len(src_paths) for _ in range(len(tgt_paths))]
        for r, p in enumerate(tgt_paths):
            mat[r][index[(a.label,) + p]] = 1
        maps[a.label] = mat
    return make_rep(q, [len(basis[v]) for v in q.vertices], maps)


def is_morphism(x: Representation, y: Representation, mats: Sequence[RationalMatrix]) -> bool:
    """Whether ``mats``, one matrix per vertex, commute with every arrow map
    of ``x`` and ``y``: a test oracle for the Hom bases."""
    q = x.quiver
    for ai, a in enumerate(q.arrows):
        s, t = q.index(a.src), q.index(a.tgt)
        if mats[t].mul(x.maps[ai]) != y.maps[ai].mul(mats[s]):
            return False
    return True


def is_exceptional(m: Representation) -> bool:
    """Brick with no self-extensions; over a hereditary algebra this also
    certifies indecomposability.  A test oracle for explicit modules."""
    return is_brick(m) and ext1_dim(m, m) == 0


def ending_walk(apply, d: Sequence[int], steps: int) -> Optional[list[tuple[int, ...]]]:
    """The iterates d, apply(d), ... before the first with a negative entry,
    if one comes within ``steps`` applications; else None.  A test oracle
    for ``CoxeterTransform.ending_orbit``, which has no step count."""
    orbit = [tuple(d)]
    for _ in range(steps):
        d = apply(d)
        if min(d) < 0:
            return orbit
        orbit.append(d)
    return None


def box_screened_roots(q: Quiver, cap: int) -> list[tuple[int, ...]]:
    """The regular screen by an Euler form on every vector of ``[0, cap]^n``
    whose Coxeter orbits run 24 steps each way without ending, a test
    oracle for ``classifier._screened_roots``."""
    phi = q.context.coxeter
    box = sorted((d for d in itertools.product(range(cap + 1), repeat=q.n) if any(d)),
                 key=lambda d: (sum(d), d))
    return [d for d in box if euler_form(q, d, d) == 1
            and all(ending_walk(apply, d, 24) is None
                    for apply in (phi.apply, phi.apply_inverse))]


def whole_pool_max_regular_ss_size(quiver: Quiver, cap: int) -> int:
    """The longest regular system by one search over the whole pool, a test
    oracle for ``tubes.max_regular_ss_size``."""
    pool = regular_exceptional_pool(quiver, cap)
    return max(map(len, _exceptional_sequences(pool, quiver.n)), default=0)


def structural_family_orbit_supports(p: int, q: int, which: str,
                                     n_max: int) -> dict[int, set[int]]:
    """Supports of tau^n of the F or G family for all 0 < |n| <= n_max, by
    iterating the structural translate on each member: a test oracle for
    ``tubes._family_orbit_supports``."""
    alg = apq_algebra(p, q)
    members = mouth_ss(p, q, TUBE_INFTY if which == "F" else TUBE_ZERO).modules
    out: dict[int, set[int]] = {n: set() for n in range(-n_max, n_max + 1) if n}
    for ref in members:
        up = alg.simple_regular(ref.point.tube, ref.point.index)
        down = up
        for n in range(1, n_max + 1):
            up = tau(up)
            down = tau_inv(down)
            out[n] |= supp(up)
            out[-n] |= supp(down)
    return out


def six_vertex_star() -> Quiver:
    """Five arms into a centre: a wild quiver with six vertices."""
    return Quiver.make(range(6), [(i, 0, f"a{i}") for i in range(1, 6)])


def one_loop_quiver() -> Quiver:
    """A loop at 1 and an arrow 1 -> 2: not acyclic, but its coboundary is
    defined, and there the two halves of a row meet."""
    return Quiver.make((1, 2), [(1, 1, "l"), (1, 2, "a")])


def doubled_triangle() -> Quiver:
    """The triangle 1 -> 2 -> 3 with the arrow 1 -> 3 doubled: a wild quiver."""
    return Quiver.make((1, 2, 3), [(1, 2, "a"), (2, 3, "b"), (1, 3, "c"), (1, 3, "d")])


def system_to_json(s: StratSystem) -> dict:
    """The JSON form of a system, a test oracle for ``system_from_json``."""
    return {"quiver": s.quiver.to_json(),
            "modules": [module_ref_to_json(m) for m in s.modules]}


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def kron2():
    return kronecker(2)


@pytest.fixture(scope="session")
def kron3():
    return kronecker(3)


@pytest.fixture(scope="session")
def apq23():
    return canonical_apq(2, 3)


WILD_SAMPLE = Path(__file__).resolve().parent.parent / "samples" / "wild_double_path.quiver.json"


def wild_sample() -> Quiver:
    """The wild quiver of ``samples/wild_double_path.quiver.json``."""
    return Quiver.from_json(json.loads(WILD_SAMPLE.read_text()))


def one_short_systems(directory: Path) -> list[Path]:
    """Two system files one member short of complete, where the completions
    at the front and at the back differ: P_1 over the 3-Kronecker quiver,
    and P_1, P_2 over the wild sample quiver."""
    systems = {"kron3_p1": ({"kronecker": {"m": 3}}, [1]),
               "wild_p1p2": (json.loads(WILD_SAMPLE.read_text()), [1, 2])}
    paths = []
    for name, (quiver, vertices) in systems.items():
        path = directory / f"{name}.ss.json"
        path.write_text(json.dumps({"quiver": quiver,
                                    "modules": [{"tauP": {"i": i, "k": 0}} for i in vertices]}),
                        encoding="utf-8")
        paths.append(path)
    return paths
