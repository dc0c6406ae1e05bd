"""The per-quiver cache context: compiled fields, sharing by value, memos."""

import sys
import threading
import time

import pytest

from stratsys.classifier import apq_families, regular_css_search
from stratsys.modules import pair_hom_ext
from stratsys.quiver import Quiver, canonical_apq, euler_form, validate
from stratsys.systems import StratSystem, extend_to_complete


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


def _counted(monkeypatch, module, name, *others):
    """Count the calls made through ``module.name`` and through the same
    name in each of ``others``, which import it from ``module``."""
    calls = [0]
    real = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return real(*args)

    for where in (module, *others):
        monkeypatch.setattr(where, name, counting)
    return calls


def test_hom_ext_table_is_the_same_cold_and_warm(monkeypatch, apq23):
    from stratsys import systems

    ctx = apq23.context
    built = _counted(monkeypatch, systems, "build_candidates")

    def table():
        pool = systems.build_candidates(apq23, 8)
        return [[pair_hom_ext(a, b) for b in pool] for a in pool]

    ctx.clear()
    cold = table()
    misses = dict(ctx.misses)
    warm = table()
    assert warm == cold
    # the warm table, its candidate pool's exceptionality checks included,
    # was answered from the memos
    assert ctx.misses == misses
    assert ctx.hits["hom_ext"] >= len(cold) ** 2 and built[0] == 2


def _kernel_calls(monkeypatch):
    """Count the ``pair_hom_ext`` calls the search kernel makes: those
    through ``systems`` that no ``check_ss`` call makes."""
    from stratsys import systems

    calls, depth = [0], [0]
    real_fact, real_check = systems.pair_hom_ext, systems.check_ss

    def fact(*args):
        calls[0] += not depth[0]
        return real_fact(*args)

    def check(*args):
        depth[0] += 1
        try:
            return real_check(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(systems, "pair_hom_ext", fact)
    monkeypatch.setattr(systems, "check_ss", check)
    return calls


def test_apq_families_builds_no_pool_and_runs_no_search(monkeypatch, capsys):
    from stratsys import classifier, systems
    from stratsys.cli import main

    canonical_apq(2, 3).context.clear()
    calls = _kernel_calls(monkeypatch)
    built = _counted(monkeypatch, systems, "build_candidates", classifier)
    assert main(["--json", "apq", "families", "--p", "2", "--q", "3"]) == 0
    capsys.readouterr()
    # deterministic counter gates: uniqueness is read off the Euler line, so
    # no completion pool is built and the search kernel never runs
    assert built[0] == 0
    assert calls[0] == 0


def test_apq_families_checks_each_family_once(monkeypatch, capsys):
    from stratsys import classifier, systems
    from stratsys.cli import main

    ctx = canonical_apq(3, 4).context
    ctx.clear()
    checks = _counted(monkeypatch, systems, "check_ss")
    rechecks = _counted(monkeypatch, classifier, "check_ss")
    assert main(["--json", "apq", "families", "--p", "3", "--q", "4"]) == 0
    capsys.readouterr()
    # deterministic counter gates, to be tightened only: with a one-slot
    # search per family the 30 families made 90 check_ss calls and 767
    # hom_ext misses
    assert checks[0] + rechecks[0] <= 30
    assert ctx.misses["hom_ext"] <= 405


def test_uniqueness_searches_stay_under_the_engine_ceilings(monkeypatch):
    from stratsys import systems

    ctx = canonical_apq(3, 4).context
    ctx.clear()
    rests = [StratSystem(inst.system.quiver, inst.system.modules[1:])
             for inst in apq_families(3, 4, 24)]
    calls = _kernel_calls(monkeypatch)
    forms = [0]

    def form(*args):
        forms[0] += 1
        return euler_form(*args)

    # the kernel reads the Euler form off ``pool.form``, and a call per pair
    # through ``systems.euler_form`` would be counted here
    monkeypatch.setattr(systems, "euler_form", form, raising=False)
    for rest in rests:
        assert extend_to_complete(rest, exponent_bound=29, positions=[0])[0] is not None
    # deterministic counter gates, to be tightened only: with a memo per
    # search the 30 searches made 32,100 kernel calls and 3,884 misses; a
    # scan of the whole pool for the last member made 702 calls, 1,259
    # misses and 2,084 Euler forms, where the Euler line tries only the
    # picks on it with 180 Euler forms; the picks on the line pass every
    # Euler equation, so the kernel now makes none.  With the Euler line a
    # memo shared by the 30 searches saved no call, so each keeps its own
    assert len(rests) == 30
    assert calls[0] <= 210
    assert ctx.misses["hom_ext"] <= 767
    assert forms[0] == 0


def test_euler_screen_spares_structural_hom_in_the_regular_search(monkeypatch):
    from stratsys import modules

    from conftest import wild_sample

    wild = wild_sample()
    wild.context.clear()
    calls = _counted(monkeypatch, modules, "hom_dim")
    assert regular_css_search(wild, 6)[0] is None
    # deterministic gate: 324 without the screen, 17 before the braid walk
    # certified the pairs of its sequences
    assert calls[0] == 0


def test_the_regular_search_builds_only_the_modules_it_asks_about(monkeypatch):
    from stratsys import modules

    from conftest import wild_sample

    wild = wild_sample()
    wild.context.clear()
    built = _counted(monkeypatch, modules, "exceptional_of_dims")
    calls = _counted(monkeypatch, modules, "hom_dim")
    assert regular_css_search(wild, 8)[0] is not None
    # deterministic gates; an eager pool builds all 39 screened vectors, and
    # before the braid walk the search built 7 and made 6 structural calls
    assert built[0] <= 3
    assert calls[0] == 0


class _YieldingKey:
    """A ref key whose hash gives up the interpreter lock, so that threads
    interleave inside the lookups and stores of the ``hom_ext`` memo."""

    def __init__(self, key):
        self.key = key

    def __hash__(self):
        time.sleep(0)
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, _YieldingKey) and self.key == other.key


def test_threads_search_as_one_thread_does(monkeypatch):
    from stratsys import modules
    from stratsys.classifier import apq_families
    from stratsys.systems import StratSystem, extend_to_complete

    quiver = canonical_apq(2, 3)
    ctx = quiver.context
    instances = apq_families(2, 3, 12)
    real_key = modules.ref_key
    monkeypatch.setattr(modules, "ref_key", lambda ref: _YieldingKey(real_key(ref)))

    def completions(first=0):
        # the one-slot searches of ``apq families --p 2 --q 3``, from the
        # ``first`` instance on and around, so that threads ask about
        # different pairs at the same time
        out = {}
        for k in range(len(instances)):
            inst = instances[(first + k) % len(instances)]
            rest = StratSystem(quiver, inst.system.modules[1:])
            found, report = extend_to_complete(rest, exponent_bound=16, positions=[0])
            out[inst.label()] = (found, report.checked, report.flags)
        return out

    def threaded():
        got = []
        barrier = threading.Barrier(4)

        def run(first):
            barrier.wait(timeout=10)
            got.append(completions(first))

        threads = [threading.Thread(target=run, args=(5 * t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        return got

    ctx.clear()
    try:
        expected = completions()
        ctx.clear()
        assert threaded() == [expected] * 4
    finally:
        ctx.clear()  # no yielding key outlives the test


def test_the_context_classifies_its_quiver_once(monkeypatch):
    from stratsys import quiver as quiver_module

    runs = []
    classify = quiver_module.classify_type
    monkeypatch.setattr(quiver_module, "classify_type",
                        lambda q: runs.append(q) or classify(q))
    q = canonical_apq(3, 5)
    q.context.clear()
    assert [q.context.quiver_class.tag for _ in range(3)] == ["Euclidean"] * 3
    assert canonical_apq(3, 5).context.quiver_class is q.context.quiver_class
    assert runs == [q]
    q.context.clear()
    assert q.context.quiver_class.tag == "Euclidean" and len(runs) == 2


def test_classify_type_leaves_no_context_behind():
    from stratsys.quiver import _CONTEXTS, classify_type

    q = Quiver.make(range(3), [(0, 1, "a"), (1, 2, "b"), (0, 2, "c"), (0, 2, "d"),
                               (0, 2, "e"), (0, 2, "f")])
    assert classify_type(q).tag == "Wild"
    assert q not in _CONTEXTS
