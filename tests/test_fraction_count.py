"""Gates that only tighten: the number of ``Fraction`` objects, and the
structural work, that the checks of a fixed batch cost.

A stdlib ``cProfile`` run counts the body runs of chosen functions while
``ext1_dim``, ``ext1_dim_direct`` and ``auslander_check`` run over a fixed
seeded batch of small modules with integer and 1/2 entries.  The counts are a
function of the code and the batch alone, so they repeat exactly; lower a
ceiling when a change lowers its count.  Writing those modules out with
``rep_to_json`` constructs no ``Fraction``, and building the wild sample's
walk modules reads no ``Fraction`` view of a matrix."""

import cProfile
import random
from fractions import Fraction

from conftest import random_representation, wild_sample
from stratsys import linalg, reps
from stratsys.artheory import auslander_check
from stratsys.io_json import rep_to_json
from stratsys.quiver import canonical_apq, kronecker
from stratsys.reps import ext1_dim, ext1_dim_direct

ENTRIES_CEILING = 0  # 2,403 while each Hom-case mutation row read the
                     # Fraction view of a whole basis map; 103 while
                     # hom_space handed its basis out as Fraction rows
CEILING = 319  # 30,213 when every matrix entry was stored as a Fraction; 446
               # while each query presented x twice

# Body runs per function; the counts before each module was presented once,
# and before the summands P_v and I_v were read off the path table, are in
# the comments.
WORK_CEILINGS = {
    # two presentations per pair: x, and the dual of y in tau_inv (72)
    "projective_cover_data": (reps.projective_cover_data, 48),
    "direct_sum": (reps.direct_sum, 0),  # 114
    "RationalMatrix.mul": (linalg.RationalMatrix.mul, 503),  # 1,425
    "linalg._eliminate": (linalg._eliminate, 734),  # 1,145
}


def _pairs() -> list:
    rng = random.Random(1208)
    quivers = [kronecker(3), canonical_apq(2, 3), wild_sample()]
    return [(random_representation(q, rng), random_representation(q, rng))
            for _ in range(8) for q in quivers]


def _calls(run, functions) -> list[int]:
    """How many times ``run`` enters each of the functions."""
    profile = cProfile.Profile()
    profile.enable()
    run()
    profile.disable()
    profile.create_stats()
    counts = []
    for fn in functions:
        code = fn.__code__
        stats = profile.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        counts.append(stats[1] if stats else 0)
    return counts


def _check(pairs) -> None:
    for x, y in pairs:
        ext1_dim(x, y)
        ext1_dim_direct(x, y)
        auslander_check(x, y)


def test_fraction_constructions_stay_under_the_ceiling():
    pairs = _pairs()
    assert _calls(lambda: _check(pairs), [Fraction.__new__])[0] <= CEILING


def test_structural_work_stays_under_the_ceilings():
    pairs = _pairs()
    counts = _calls(lambda: _check(pairs), [fn for fn, _ in WORK_CEILINGS.values()])
    assert {name: count for name, count in zip(WORK_CEILINGS, counts)
            if count > WORK_CEILINGS[name][1]} == {}


def test_rep_to_json_constructs_no_fraction():
    modules = [m for pair in _pairs() for m in pair]
    assert any(m.den == 2 for x in modules for m in x.maps)
    assert _calls(lambda: [rep_to_json(x) for x in modules], [Fraction.__new__]) == [0]


def test_building_the_walk_modules_reads_few_fraction_views(monkeypatch):
    from stratsys.classifier import _screened_roots, exceptional_of_dims

    wild = wild_sample()
    wild.context.clear()
    screened = _screened_roots(wild, 24)
    reads = []
    view = linalg.RationalMatrix.entries.fget
    monkeypatch.setattr(linalg.RationalMatrix, "entries",
                        property(lambda m: reads.append(m) or view(m)))
    built = [exceptional_of_dims(wild, dims) for dims in screened]
    assert sum(rep is not None for rep in built) == 148
    assert len(reads) <= ENTRIES_CEILING
