import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest

from stratsys.io_json import module_ref_to_json
from stratsys.linalg import RationalMatrix
from stratsys.quiver import Quiver, canonical_apq, kronecker
from stratsys.reps import (Representation, ext1_dim, hom_ext_via_presentation, is_brick,
                           make_rep, minimal_presentation)
from stratsys.systems import StratSystem

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
