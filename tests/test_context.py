"""The per-quiver cache context: compiled fields, sharing by value, memos."""

import sys
import threading

import pytest

from stratsys.modules import pair_hom_ext
from stratsys.quiver import Quiver, canonical_apq, euler_form, validate
from stratsys.systems import build_candidates


def test_equal_quivers_share_one_context_and_hash():
    q = canonical_apq(2, 3)
    twin = canonical_apq(2, 3)
    round_trip = Quiver.from_json(q.to_json())
    assert twin is not q and round_trip is not q
    assert hash(twin) == hash(q) == hash(round_trip)
    assert twin.context is q.context is round_trip.context


def test_context_is_keyed_by_value_not_identity():
    q = Quiver.make([1, 2], [(2, 1, "a")])
    assert Quiver.make([1, 2], [(2, 1, "b")]).context is not q.context
    assert Quiver.make([2, 1], [(2, 1, "a")]).context is not q.context


def test_two_threads_get_one_context_for_a_new_quiver():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(200):
            got = []
            barrier = threading.Barrier(2)

            def ask():
                q = Quiver.make([1, 2], [(2, 1, f"race{trial}")])
                barrier.wait(timeout=10)
                got.append(q.context)

            threads = [threading.Thread(target=ask) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(got) == 2 and got[0] is got[1]
    finally:
        sys.setswitchinterval(interval)


def test_compiled_fields_keep_the_invalid_quiver_semantics():
    dup = Quiver.make([1, 2, 1], [(2, 1, "a")])
    assert dup.index(1) == (1, 2, 1).index(1) == 0
    assert validate(dup).violations[0].axiom == "distinct-vertices"
    stray = Quiver.make([1, 2], [(2, 3, "a")])
    assert validate(stray).violations[0].axiom == "endpoints"
    with pytest.raises(ValueError):
        euler_form(stray, (1, 0), (0, 1))
    with pytest.raises(ValueError):
        stray.index(3)


def test_hom_ext_table_is_the_same_cold_and_warm(apq23):
    ctx = apq23.context

    def table():
        pool = build_candidates(apq23, 8)
        return [[pair_hom_ext(a, b) for b in pool] for a in pool]

    ctx.clear()
    cold = table()
    misses = dict(ctx.misses)
    warm = table()
    assert warm == cold
    assert ctx.misses == misses  # the warm table was answered from the memos
    assert ctx.hits["hom_ext"] >= len(cold) ** 2 and ctx.hits["pools"] == 1


def test_apq_families_builds_its_candidate_pool_once(capsys):
    from stratsys.cli import main

    ctx = canonical_apq(2, 3).context
    ctx.clear()
    assert main(["--json", "apq", "families", "--p", "2", "--q", "3"]) == 0
    capsys.readouterr()
    # deterministic counter gate: one build for all 22 uniqueness searches
    assert ctx.misses["pools"] == 1
    assert ctx.hits["pools"] == 21
