"""A gate that only tightens: the number of ``Fraction`` objects the
structural checks construct.

A stdlib ``cProfile`` run counts the calls of ``Fraction.__new__`` while
``ext1_dim``, ``ext1_dim_direct`` and ``auslander_check`` run over a fixed
seeded batch of small modules with integer and 1/2 entries.  The count is a
function of the code and the batch alone, so it repeats exactly; lower
``CEILING`` when a change lowers the count."""

import cProfile
import random
from fractions import Fraction

from conftest import random_representation, wild_sample
from stratsys.artheory import auslander_check
from stratsys.quiver import canonical_apq, kronecker
from stratsys.reps import ext1_dim, ext1_dim_direct

CEILING = 446  # 30,213 when every matrix entry was stored as a Fraction


def _fraction_constructions() -> int:
    rng = random.Random(1208)
    quivers = [kronecker(3), canonical_apq(2, 3), wild_sample()]
    pairs = [(random_representation(q, rng), random_representation(q, rng))
             for _ in range(8) for q in quivers]
    profile = cProfile.Profile()
    profile.enable()
    for x, y in pairs:
        ext1_dim(x, y)
        ext1_dim_direct(x, y)
        auslander_check(x, y)
    profile.disable()
    profile.create_stats()
    code = Fraction.__new__.__code__
    stats = profile.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return stats[1] if stats else 0


def test_fraction_constructions_stay_under_the_ceiling():
    assert _fraction_constructions() <= CEILING
