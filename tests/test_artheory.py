import itertools

import pytest

from conftest import random_representation, wild_sample
from stratsys.apq import TUBE_INFTY, TUBE_ZERO, apq_algebra, tube_lambda
from stratsys.artheory import (ArPosition, ar_position, auslander_check, tau,
                               tau_inv, tau_power)
from stratsys.modules import (materialize, pair_ext, pair_hom, pair_hom_ext,
                              ref_preinj, ref_preproj, ref_total_dim, ref_tube)
from stratsys.quiver import canonical_apq, coxeter_transform, kronecker
from stratsys.reps import (brick_iso, direct_sum, ext1_dim, hom_dim, injective,
                           projective)


def test_tau_kills_projectives(kron2, apq23):
    for q in (kron2, apq23):
        for v in q.vertices:
            assert tau(projective(q, v)).is_zero()
            assert tau_inv(injective(q, v)).is_zero()


def test_tau_dims_follow_coxeter(kron2):
    phi = coxeter_transform(kron2)
    i1 = injective(kron2, 1)
    assert tau(i1).dims == phi.apply(i1.dims) == (3, 4)
    p1 = projective(kron2, 1)
    assert tau_inv(p1).dims == phi.apply_inverse(p1.dims) == (3, 2)


def test_tau_cycle_on_infty_tube():
    alg = apq_algebra(2, 3)
    e2 = alg.simple_regular(TUBE_INFTY, 2)
    e1 = alg.simple_regular(TUBE_INFTY, 1)
    assert brick_iso(tau(e2), e1)
    assert brick_iso(tau(e1), e2)  # wrap-around


def test_tau_power_identity_and_cycles(apq23):
    alg = apq_algebra(2, 3)
    e1 = alg.simple_regular(TUBE_ZERO, 1)
    assert tau_power(e1, 0) is e1
    assert brick_iso(tau_power(e1, -3), e1)  # q-cycle of length 3
    p0 = projective(apq23, 0)
    from stratsys.reps import is_sincere

    assert is_sincere(tau_power(p0, -2))  # sincere after p steps


def test_tau_round_trip(kron2, rng):
    m = tau_inv(tau_inv(projective(kron2, 2)))
    assert tau_inv(tau(m)).dims == m.dims
    assert tau(tau_inv(m)).dims == m.dims


def test_tau_on_direct_sum(kron2):
    m = direct_sum([projective(kron2, 1), injective(kron2, 1)])
    image = tau(m)
    assert image.dims == tau(injective(kron2, 1)).dims  # projective part dies


def test_tau_dims_random_nonprojective(kron2, apq23, rng):
    for q in (kron2, apq23):
        phi = coxeter_transform(q)
        count = 0
        while count < 6:
            m = random_representation(q, rng)
            if tau(m).is_zero():
                continue
            t = tau(m)
            # Coxeter predicts dims once the projective summands are dropped
            # (random modules may contain them); compare through tau_inv
            back = tau_inv(t)
            assert tau(back).dims == t.dims
            assert phi.apply(back.dims) == t.dims
            count += 1


def test_ar_position_examples(kron2, apq23):
    assert ar_position(projective(kron2, 1)) == ArPosition("Preprojective", 1, 0)
    assert ar_position(injective(apq23, 3)) == ArPosition("Preinjective", 3, 0)
    m = tau_inv(projective(kron2, 1))
    assert m.dims == (3, 2)
    assert ar_position(m) == ArPosition("Preprojective", 1, 1)
    alg = apq_algebra(2, 3)
    for label, index in ((TUBE_INFTY, 1), (TUBE_INFTY, 2), (TUBE_ZERO, 3),
                         (tube_lambda(1), 1)):
        assert ar_position(alg.simple_regular(label, index)).kind == "Regular"


def test_auslander_examples(kron2):
    p1 = projective(kron2, 1)
    i2 = injective(kron2, 2)
    report = auslander_check(i2, p1)
    assert report.passed
    assert ext1_dim(i2, p1) == 2
    assert auslander_check(p1, i2).passed  # projective first argument


def test_auslander_homogeneous_tube():
    alg = apq_algebra(2, 3)
    e = alg.simple_regular(tube_lambda(1), 1)
    report = auslander_check(e, e)
    assert report.passed
    assert ext1_dim(e, e) == 1


def test_auslander_random_100_pairs_per_quiver(kron2, kron3, apq23, rng):
    for q in (kron2, kron3, apq23):
        for _ in range(100):
            x = random_representation(q, rng)
            y = random_representation(q, rng)
            assert auslander_check(x, y).passed


def test_no_backward_extensions_between_orbit_modules(kron2, kron3, apq23):
    # Ext^1(tau^{-t} P_j, tau^{-t-r} P_m) = 0 and the preinjective dual
    for q in (kron2, kron3, apq23):
        for t, r in itertools.product(range(5), range(5)):
            for j in q.vertices:
                for m in q.vertices:
                    a = ref_preproj(q, j, t)
                    b = ref_preproj(q, m, t + r)
                    assert pair_ext(a, b) == 0
                    c = ref_preinj(q, j, t + r)
                    d = ref_preinj(q, m, t)
                    assert pair_ext(c, d) == 0


def _engine_refs(q, exp):
    refs = []
    for v in q.vertices:
        for k in range(exp + 1):
            refs.append(ref_preproj(q, v, k))
            refs.append(ref_preinj(q, v, k))
    return refs


def _star(arms):
    """Arms arrows into the sink 0: Dynkin D4 for three arms (every tau-orbit
    dies after three modules), Euclidean D~4 for four."""
    from stratsys.quiver import Quiver

    return Quiver.make(list(range(arms + 1)), [(v, 0, f"a{v}") for v in range(1, arms + 1)])


@pytest.mark.parametrize("maker,exp", [
    (lambda: kronecker(2), 3),
    (lambda: kronecker(3), 1),
    (lambda: canonical_apq(1, 2), 2),
    pytest.param(lambda: _star(3), 4, id="star-d4-4"),
    pytest.param(lambda: _star(4), 2, id="star-d4tilde-2"),
    pytest.param(lambda: canonical_apq(2, 3), 3, id="apq23-3"),
    pytest.param(wild_sample, 2, id="wild-2"),
])
def test_engine_matches_structure_orbit_modules(maker, exp):
    q = maker()
    # the total dimension cap keeps the wild orbits (which grow
    # exponentially) small enough to materialize; it spares every other case
    refs = [ref for ref in _engine_refs(q, exp) if ref_total_dim(ref) <= 60]
    for a in refs:
        for b in refs:
            hom = pair_hom(a, b)
            ext = pair_ext(a, b)
            ma, mb = materialize(a), materialize(b)
            assert hom == hom_dim(ma, mb), (a.describe(), b.describe())
            assert ext == ext1_dim(ma, mb), (a.describe(), b.describe())


def test_apq_families_makes_no_structural_hom_call(monkeypatch, capsys):
    """The Euler form answers every pair with a tau-orbit side, two
    different tubes are orthogonal and Hom inside one tube has a closed
    form; ``apq families`` has no explicit module, so no pair reaches the
    structure."""
    from stratsys import modules
    from stratsys.cli import main

    pairs = []
    canonical_apq(2, 3).context.clear()
    monkeypatch.setattr(modules, "_structural_hom", lambda a, b: pairs.append((a, b)) or 0)
    assert main(["--json", "apq", "families", "--p", "2", "--q", "3"]) == 0
    capsys.readouterr()
    assert pairs == []


def test_orbit_dims_cache_is_thread_safe():
    """Four threads extending one orbit in the quiver's context at once, with
    a tiny switch interval, must read and leave behind the single-threaded
    orbit."""
    import sys
    import threading

    from stratsys import modules

    q, top = kronecker(3), 12
    memo, key = q.context.orbit_dims, (modules.PREPROJ, 1)
    memo.pop(key, None)
    reference = [modules._orbit_dims(q, modules.PREPROJ, 1, k) for k in range(top)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            memo.pop(key, None)
            barrier = threading.Barrier(4)
            seen = []

            def read():
                barrier.wait()
                dims = [modules._orbit_dims(q, modules.PREPROJ, 1, k)
                        for k in reversed(range(top))]
                seen.append(dims[::-1])

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert seen == [reference] * 4
            cached = list(memo[key])
            assert cached == reference[:len(cached)]
    finally:
        sys.setswitchinterval(interval)


def test_engine_matches_structure_with_tubes():
    q = canonical_apq(2, 3)
    refs = _engine_refs(q, 2)
    refs += [ref_tube(2, 3, TUBE_INFTY, i) for i in (1, 2)]
    refs += [ref_tube(2, 3, TUBE_ZERO, i) for i in (1, 2, 3)]
    refs += [ref_tube(2, 3, TUBE_ZERO, 1, level=2)]
    for a in refs:
        for b in refs:
            ma, mb = materialize(a), materialize(b)
            assert pair_hom(a, b) == hom_dim(ma, mb), (a.describe(), b.describe())
            assert pair_ext(a, b) == ext1_dim(ma, mb), (a.describe(), b.describe())


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 4), (2, 5)])
def test_engine_makes_points_of_different_tubes_orthogonal(p, q):
    """Every ordered pair of points from two different tubes, at levels up to
    the rank, is (0, 0) both by the engine and by the structure."""
    alg = apq_algebra(p, q)
    tubes = []
    for label in (TUBE_INFTY, TUBE_ZERO, tube_lambda(1)):
        rank = alg.tube_rank(label)
        tubes.append([ref_tube(p, q, label, i, level)
                      for i in range(1, rank + 1) for level in range(1, rank + 1)])
    for one, other in itertools.permutations(tubes, 2):
        for a, b in itertools.product(one, other):
            ma, mb = materialize(a), materialize(b)
            assert pair_hom_ext(a, b) == (hom_dim(ma, mb), ext1_dim(ma, mb)) == (0, 0), \
                (a.describe(), b.describe())


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 3), (3, 4), (2, 5), (4, 5), (5, 6),
                                 (7, 8)])
def test_engine_counts_hom_inside_a_tube_as_the_structure_does(p, q, monkeypatch):
    """Every ordered pair of points of one tube, at levels up to the rank
    plus one, in the tubes of rank p and q and one lambda tube: the engine's
    closed form against ``hom_dim`` and, for Ext^1, the presentation route
    on the materialized points.  The engine makes no ``hom_dim`` call."""
    from stratsys import modules
    from stratsys.reps import ext1_dim_direct

    alg = apq_algebra(p, q)
    alg.quiver.context.clear()
    tubes = []
    for label in (TUBE_INFTY, TUBE_ZERO, tube_lambda(1)):
        rank = alg.tube_rank(label)
        tubes.append([ref_tube(p, q, label, i, level)
                      for i in range(1, rank + 1) for level in range(1, rank + 2)])
    monkeypatch.setattr(modules, "hom_dim", None)  # a structural call would raise
    engine = {(a, b): pair_hom_ext(a, b)
              for tube in tubes for a, b in itertools.product(tube, repeat=2)}
    monkeypatch.undo()
    for (a, b), entry in engine.items():
        ma, mb = materialize(a), materialize(b)
        assert entry == (hom_dim(ma, mb), ext1_dim_direct(ma, mb)), \
            (a.describe(), b.describe())


def test_engine_on_dynkin_orbit_modules():
    # A_3 linear quiver: orbits hit projective-injective modules and die,
    # so the engine meets zero modules at the orbit ends
    from stratsys.quiver import Quiver

    q = Quiver.make([1, 2, 3], [(3, 2, "a"), (2, 1, "b")])
    refs = _engine_refs(q, 2)
    for a in refs:
        for b in refs:
            da, db = materialize(a), materialize(b)
            if da.is_zero() or db.is_zero():
                continue
            assert pair_hom(a, b) == hom_dim(da, db), (a.describe(), b.describe())


def test_tau_on_branching_quivers_follows_coxeter(rng):
    from stratsys.quiver import Quiver, euler_form
    from stratsys.reps import ext1_dim_direct

    star = Quiver.make([0, 1, 2, 3, 4], [(1, 0, "a"), (2, 0, "b"),
                                         (3, 0, "c"), (4, 0, "d")])
    mixed = Quiver.make([1, 2, 3, 4], [(2, 1, "a1"), (2, 1, "a2"),
                                       (3, 2, "b"), (4, 2, "c")])
    for q in (star, mixed):
        phi = coxeter_transform(q)
        for v in q.vertices:
            m = projective(q, v)
            n = tau_inv(m)
            if not n.is_zero():
                assert n.dims == phi.apply_inverse(m.dims)
                assert tau(n).dims == m.dims
            mi = injective(q, v)
            ni = tau(mi)
            if not ni.is_zero():
                assert ni.dims == phi.apply(mi.dims)
        for _ in range(10):
            x = random_representation(q, rng)
            y = random_representation(q, rng)
            assert ext1_dim(x, y) == ext1_dim_direct(x, y)
            assert hom_dim(x, y) - ext1_dim(x, y) == euler_form(q, x.dims, y.dims)


def test_tau_power_zero_for_dynkin_orbit_end():
    from stratsys.quiver import Quiver

    q = Quiver.make([1, 2, 3], [(3, 2, "a"), (2, 1, "b")])
    # A_3 has finitely many indecomposables; iterating tau_inv reaches zero
    m = projective(q, 1)
    out = tau_power(m, -10)
    assert out.is_zero()


def _record_tau_calls(monkeypatch):
    """Record (function, dims) for every tau and tau_inv call by name."""
    from stratsys import artheory

    calls = []
    for name in ("tau", "tau_inv"):
        def record(m, fn=getattr(artheory, name), name=name):
            calls.append((name, m.dims))
            return fn(m)
        monkeypatch.setattr(artheory, name, record)
    return calls


def test_ar_position_dynkin_walks_only_the_certifying_side(monkeypatch):
    # A_3 is Dynkin, so both Coxeter orbits are read and the one that ends
    # first is certified structurally, the tau side on a tie.  tau_inv runs
    # tau on the dual, which shows as the call after it.
    from stratsys.quiver import Quiver
    from stratsys.reps import simple

    q = Quiver.make([1, 2, 3], [(3, 2, "a"), (2, 1, "b")])
    calls = _record_tau_calls(monkeypatch)
    # the tau_inv orbit ends at once; no tau step is taken
    assert ar_position(injective(q, 2)) == ArPosition("Preinjective", 2, 0)
    assert calls == [("tau_inv", (0, 1, 1)), ("tau", (0, 1, 1))]
    # the tau orbit ends after one step, before the tau_inv orbit does
    calls.clear()
    assert ar_position(simple(q, 2)) == ArPosition("Preprojective", 1, 1)
    assert calls == [("tau", (0, 1, 0)), ("tau", (1, 0, 0))]


def test_ar_position_reads_a_wild_regular_off_the_forms(kron3, monkeypatch):
    from stratsys.reps import make_rep

    m = make_rep(kron3, (1, 1), {"a1": [[1]]})
    calls = _record_tau_calls(monkeypatch)
    assert ar_position(m) == ArPosition("Regular")
    assert calls == []  # both Perron forms are positive, so nothing is translated


def test_ar_position_refuses_a_split_support_before_a_regular_answer(kron3, monkeypatch):
    from stratsys.artheory import coxeter_position
    from stratsys.reps import make_rep

    q = wild_sample()
    split = make_rep(q, (1, 1, 0), {})  # S_1 + S_2: both Perron forms are positive
    assert coxeter_position(q, split.dims)[0] == ArPosition("Regular")
    calls = _record_tau_calls(monkeypatch)
    with pytest.raises(ArithmeticError, match="support splits"):
        ar_position(split)
    # one nonzero map joins the support
    joined = make_rep(q, (1, 1, 0), {"b2": [[1]]})
    assert ar_position(joined) == ArPosition("Regular")
    # a zero map between two vertices does not join them
    assert ar_position(make_rep(kron3, (1, 1), {"a2": [[1]]})) == ArPosition("Regular")
    with pytest.raises(ArithmeticError, match="support splits"):
        ar_position(make_rep(kron3, (1, 1), {"a2": [[0]]}))
    assert calls == []


def test_ar_position_walks_a_long_dynkin_orbit_to_its_end(monkeypatch):
    # over A_134 with arrows i+1 -> i, S_67 is tau^-66 P_1 and tau^67 I_134:
    # both orbits are walked to their ends, the tau side ends first and 67
    # translates certify it
    from stratsys.modules import ref_dims
    from stratsys.quiver import Quiver
    from stratsys.reps import simple

    n = 134
    q = Quiver.make(range(1, n + 1), [(i + 1, i, f"a{i}") for i in range(1, n)])
    calls = _record_tau_calls(monkeypatch)
    assert ar_position(simple(q, 67)) == ArPosition("Preprojective", 1, 66)
    assert [name for name, _ in calls] == ["tau"] * 67
    assert ref_dims(ref_preproj(q, 1, 66)) == ref_dims(ref_preinj(q, n, 67))
    assert ref_dims(ref_preproj(q, 1, 66)) == simple(q, 67).dims


def _wild_sample():
    import json
    from pathlib import Path

    from stratsys.quiver import Quiver

    sample = Path(__file__).resolve().parent.parent / "samples" / "wild_double_path.quiver.json"
    return Quiver.from_json(json.loads(sample.read_text()))


@pytest.mark.parametrize("maker", [lambda: kronecker(3), _wild_sample], ids=["kron3", "wild"])
def test_ar_position_matches_the_pedigree_with_one_walk(maker, monkeypatch):
    """Every orbit module tau^-k P_i, tau^k I_i with k <= 3 and total
    dimension <= 250 over a wild quiver gets its pedigree, certified by
    exactly k + 1 translates on its own side."""
    q = maker()
    modules = []
    for v in q.vertices:
        for k in range(4):
            for ref, position in ((ref_preproj(q, v, k), ArPosition("Preprojective", v, k)),
                                  (ref_preinj(q, v, k), ArPosition("Preinjective", v, k))):
                if ref_total_dim(ref) <= 250:
                    modules.append((materialize(ref), position))
    assert len(modules) >= 10
    calls = _record_tau_calls(monkeypatch)
    for m, position in modules:
        calls.clear()
        assert ar_position(m) == position
        k = position.power
        if position.kind == "Preprojective":
            assert [name for name, _ in calls] == ["tau"] * (k + 1)
        else:  # each tau_inv runs one tau on the dual
            assert [name for name, _ in calls] == ["tau_inv", "tau"] * (k + 1)
        assert calls[0][1] == m.dims


def test_tau_and_ext_keep_no_module_alive(kron2):
    import gc
    import weakref

    from stratsys.reps import ext1_dim_direct, make_rep

    m = make_rep(kron2, (1, 1), {"a1": [[1]]})
    tau(m)
    tau_inv(m)
    ext1_dim_direct(m, m)
    auslander_check(m, m)
    alive = weakref.ref(m)
    del m
    gc.collect()
    assert alive() is None


# sha256 of the JSON list of rep_to_json(tau(m)), resp. tau_inv(m), over 8
# seeded modules; ``ar tau`` prints these bases, so the pins fix the explicit
# construction and not only its dimension vectors
TAU_PINS = {
    "kron2": ("03c71a455e589cd29383a96efb45ddf85558fae39b91a9b8fbef2eee545d854c",
              "7dab3e76e60838a641941de45e89381c7d5787302cf1830432a7e06a7bee7345"),
    "apq23": ("0def3f4d005b615c64ec5d59d66e52a3da0cbd213eeded98f9e1857ff5763b47",
              "91e7c015722327ba1c25801f62ce05d170e750fe2b282c516e958e4949c80bd6"),
    "wild-sample": ("0e7529203ab412a1df2949d88ba861f609e2ecbbcd9a6631389fe55525461d9e",
                    "c8612b8f7e57f8a61259145fdc056c1ea02c4264165605c0baf5139b7f3eff2f"),
}


@pytest.mark.parametrize("name", sorted(TAU_PINS))
def test_tau_bases_are_pinned(name):
    import hashlib
    import json
    import random

    from stratsys.io_json import rep_to_json

    q = {"kron2": lambda: kronecker(2), "apq23": lambda: canonical_apq(2, 3),
         "wild-sample": _wild_sample}[name]()
    rng = random.Random(8)
    modules = [random_representation(q, rng) for _ in range(8)]
    digests = tuple(
        hashlib.sha256(json.dumps([rep_to_json(f(m)) for m in modules],
                                  sort_keys=True).encode()).hexdigest()
        for f in (tau, tau_inv))
    assert digests == TAU_PINS[name]
