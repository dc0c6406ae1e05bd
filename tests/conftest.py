import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from stratsys.quiver import Quiver, canonical_apq, kronecker
from stratsys.reps import (Representation, hom_ext_via_presentation, make_rep,
                           minimal_presentation)

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
