"""A gate that only tightens: the number of ``Fraction`` objects the
structural checks construct.

A stdlib ``cProfile`` run counts the calls of ``Fraction.__new__`` while
``ext1_dim``, ``ext1_dim_direct`` and ``auslander_check`` run over a fixed
seeded batch of small modules with integer and 1/2 entries.  The count is a
function of the code and the batch alone, so it repeats exactly; lower
``CEILING`` when a change lowers the count.  Writing those modules out with
``rep_to_json`` constructs none."""

import cProfile
import random
from fractions import Fraction

from conftest import random_representation, wild_sample
from stratsys.artheory import auslander_check
from stratsys.io_json import rep_to_json
from stratsys.quiver import canonical_apq, kronecker
from stratsys.reps import ext1_dim, ext1_dim_direct

CEILING = 446  # 30,213 when every matrix entry was stored as a Fraction


def _pairs() -> list:
    rng = random.Random(1208)
    quivers = [kronecker(3), canonical_apq(2, 3), wild_sample()]
    return [(random_representation(q, rng), random_representation(q, rng))
            for _ in range(8) for q in quivers]


def _fraction_constructions(run) -> int:
    profile = cProfile.Profile()
    profile.enable()
    run()
    profile.disable()
    profile.create_stats()
    code = Fraction.__new__.__code__
    stats = profile.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return stats[1] if stats else 0


def test_fraction_constructions_stay_under_the_ceiling():
    pairs = _pairs()

    def run():
        for x, y in pairs:
            ext1_dim(x, y)
            ext1_dim_direct(x, y)
            auslander_check(x, y)

    assert _fraction_constructions(run) <= CEILING


def test_rep_to_json_constructs_no_fraction():
    modules = [m for pair in _pairs() for m in pair]
    assert any(m.den == 2 for x in modules for m in x.maps)
    assert _fraction_constructions(lambda: [rep_to_json(x) for x in modules]) == 0
