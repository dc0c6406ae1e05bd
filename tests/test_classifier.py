import pytest

from stratsys.classifier import (apq_families, compare_kronecker_enumeration,
                                 enumerate_css_kronecker, exceptional_of_dims,
                                 expected_y_postprojective,
                                 expected_y_preinjective, family5_index_zero,
                                 kronecker_css_list, kronecker_orbit_pool,
                                 kronecker_regular_selfext_check,
                                 regular_css_search, sincerity_profile,
                                 verify_family_uniqueness,
                                 y_search)
from stratsys.modules import ref_dims
from stratsys.quiver import Quiver, kronecker
from stratsys.systems import check_css


def test_kron_list_m2_bound3_counts():
    instances = kronecker_css_list(2, 3)
    assert len(instances) == 16  # 1 + 4 + 4 + 4 + 3
    assert all(inst.report.passed for inst in instances)


def test_kron_list_m3_instance():
    instances = kronecker_css_list(3, 1)
    wanted = [i for i in instances if i.family_id == 2 and i.params.get("i") == 1]
    assert wanted and wanted[0].report.passed


def test_kron_list_item_one_is_i2_p1():
    inst = kronecker_css_list(2, 0)[0]
    assert inst.family_id == 1
    assert inst.system.describe() == "(I_2, P_1)"


def test_kron_family5_index_zero_is_complete_system():
    inst = family5_index_zero(2)
    assert inst.report.passed
    assert inst.flags


def test_kron_orbit_pool_m3_cap13():
    pool = kronecker_orbit_pool(3, 13)
    assert {ref_dims(r) for r in pool} == {(1, 0), (3, 1), (8, 3),
                                           (0, 1), (1, 3), (3, 8)}


def test_kron_enumeration_matches_list():
    # at cap 60 the K_2 list needs members beyond index 24
    for m, cap in ((2, 9), (3, 13), (2, 60)):
        report = compare_kronecker_enumeration(m, cap)
        assert report.passed, report.summary()
        assert any("family 5 extends to i=0" in f for f in report.flags)


def test_kron_enumeration_instance_count_m2_cap9():
    found, _ = enumerate_css_kronecker(2, 9)
    # 1 + 4 + 4 + 4 + 3 truncated instances plus the flagged (tau I_2, I_1)
    assert len(found) == 17


def test_kron_regular_selfext():
    for m in (2, 3):
        report = kronecker_regular_selfext_check(m)
        assert report.passed, report.summary()


def test_y_post_expected_cases():
    assert expected_y_postprojective(2, 3, 0) == {0, 4}
    assert expected_y_postprojective(2, 3, 3) == {1}
    assert expected_y_postprojective(2, 3, 1) == set()
    assert expected_y_postprojective(2, 3, 6) == {0, 4}


def test_y_pre_expected_cases():
    assert expected_y_preinjective(2, 3, 0) == set()
    assert expected_y_preinjective(2, 3, 3) == {2}
    assert expected_y_preinjective(2, 3, 5) == {0, 4}


def test_y_search_small_bound():
    found, report = y_search(2, 3, 6, "postprojective")
    assert report.passed, report.summary()
    assert (0, 0) in found and (0, 4) in found and (3, 1) in found
    found, report = y_search(2, 3, 6, "preinjective")
    assert report.passed, report.summary()
    assert (3, 2) in found and (5, 0) in found and (5, 4) in found
    assert not any(t == 0 for t, _ in found)


def test_y_search_p_equals_one():
    _, report = y_search(1, 2, 4, "postprojective")
    assert report.passed, report.summary()
    _, report = y_search(1, 2, 4, "preinjective")
    assert report.passed, report.summary()


def test_sincerity_profile_2_3():
    profile = sincerity_profile(2, 3, 8)
    assert profile.report.passed, profile.report.summary()
    assert profile.minimal_preproj[0] == 2  # p - i at i = 0
    assert profile.minimal_preproj[4] == 0  # source projective already sincere
    assert profile.minimal_preinj[1] == 1   # i at i = 1
    assert profile.minimal_preinj[0] == 0
    # the catalogued long-arm ranges disagree with computation at one vertex;
    # that ends up flagged, never silently passed
    assert any("preinj minimal exponent at vertex 2" in f
               for f in profile.report.flags)


def test_apq_families_2_3():
    instances = apq_families(2, 3, 12)
    assert len(instances) == 22
    assert all(inst.report.passed for inst in instances), [
        inst.label() for inst in instances if not inst.report.passed]
    assert sorted({i.family_id for i in instances}) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]


def test_apq_family_examples():
    instances = apq_families(2, 3, 12)
    fam1 = next(i for i in instances if i.family_id == 1)
    assert fam1.system.describe() == "(I_4, E^(inf)_1, E^(0)_2, E^(0)_1, P_0)"
    fam2 = next(i for i in instances if i.family_id == 2)
    assert fam2.listed_x.describe() == "tau^-1 P_2"  # p != q branch
    fam9 = next(i for i in instances if i.family_id == 9 and i.params["t"] == 5)
    assert fam9.listed_x.describe() == "tau^6 I_4"
    assert fam9.system.modules[-1].describe() == "tau^5 I_0"


def test_apq_family_uniqueness_spot_checks():
    instances = apq_families(2, 3, 6)
    for inst in instances[:6]:
        report = verify_family_uniqueness(inst)
        assert report.passed, report.summary()
        assert report.checked == 2 and not report.flags


def test_apq_families_1_2():
    instances = apq_families(1, 2, 4)
    assert instances
    assert all(inst.report.passed for inst in instances), [
        (i.label(), i.report.summary()) for i in instances if not i.report.passed]


def test_apq_families_equal_arms():
    # p = q engages the other branch of the first-member formulas
    for p, bound in ((2, 8), (3, 6)):
        instances = apq_families(p, p, bound)
        assert instances
        assert all(inst.report.passed for inst in instances), [
            (i.label(), i.report.summary()) for i in instances if not i.report.passed]
        fam2 = next(i for i in instances if i.family_id == 2)
        assert fam2.listed_x.describe() == f"tau^-{p - 1} P_0"


def test_y_search_2_2_full_period():
    found, report = y_search(2, 2, 8, "postprojective")
    assert report.passed, report.summary()
    found, report = y_search(2, 2, 8, "preinjective")
    assert report.passed, report.summary()


def test_family_instances_agree_with_fully_structural_check():
    # materialize every member of mid-size instances and re-run the axioms
    # with no symbolic shortcuts at all
    from stratsys.modules import materialize, ref_plain
    from stratsys.systems import StratSystem

    instances = apq_families(2, 3, 6)
    big = [i for i in instances if i.params.get("t") == 6] + instances[:2]
    assert big
    for inst in big:
        plain = StratSystem(inst.system.quiver,
                            tuple(ref_plain(materialize(m)) for m in inst.system.modules))
        structural = check_css(plain)
        assert structural.passed == inst.report.passed
        assert structural.passed


WILD3 = Quiver.make([1, 2, 3], [(2, 1, "b1"), (2, 1, "b2"),
                                (3, 2, "c1"), (3, 2, "c2")])


def test_regular_css_search_preconditions():
    with pytest.raises(ValueError):
        regular_css_search(kronecker(3), 4)  # two vertices only
    from stratsys.quiver import canonical_apq

    with pytest.raises(ValueError):
        regular_css_search(canonical_apq(2, 3), 4)  # Euclidean


def test_regular_css_search_cap6_none():
    witness, report = regular_css_search(WILD3, 6)
    assert witness is None
    assert any(v.axiom == "no-witness" for v in report.violations)


def test_regular_css_search_cap8_witness():
    witness, report = regular_css_search(WILD3, 8)
    assert witness is not None
    assert check_css(witness).passed
    assert witness.size == 3


def _eager_search(q, cap):
    """The witness dims and ``checked`` count of a pool that builds every
    screened vector's module before it searches."""
    from stratsys.classifier import _screened_roots
    from stratsys.modules import ref_plain
    from stratsys.systems import StratSystem, _exceptional_sequences

    screened = _screened_roots(q, cap)
    found = [exceptional_of_dims(q, dims) for dims in screened]
    refs = [ref_plain(rep) for rep in found if rep is not None]
    witness = next((s for s in _exceptional_sequences(refs, q.n) if len(s) == q.n), None)
    if witness is None:
        return None, len(screened)
    system = StratSystem(q, tuple(refs[i] for i in witness))
    return [ref_dims(m) for m in system.modules], len(screened) + check_css(system).checked


@pytest.mark.parametrize("cap", [6, 8])
def test_regular_css_search_finds_what_an_eager_pool_finds(cap):
    WILD3.context.clear()
    witness, report = regular_css_search(WILD3, cap)
    dims = None if witness is None else [ref_dims(m) for m in witness.modules]
    assert (dims, report.checked) == _eager_search(WILD3, cap)


def test_regular_css_search_drops_a_vector_with_no_module_and_reruns(monkeypatch):
    from stratsys import classifier, modules
    from stratsys.modules import NoExceptionalModuleError, materialize, ref_root

    # <d, d> = 1 on (2, 7, 2), but it is no Schur root: no module on it is
    # exceptional, and the braid walk never reaches it.  Ask about it first.
    screened = classifier._screened_roots
    monkeypatch.setattr(classifier, "_screened_roots", lambda q, cap: sorted(
        screened(q, cap), key=lambda d: d != (2, 7, 2)))
    runs = []
    search = classifier._exceptional_sequences
    monkeypatch.setattr(classifier, "_exceptional_sequences",
                        lambda items, length: runs.append([r.dims for r in items])
                        or search(items, length))
    WILD3.context.clear()
    witness, report = regular_css_search(WILD3, 8)
    assert [ref_dims(m) for m in witness.modules] == [(0, 1, 0), (1, 8, 4), (0, 2, 1)]
    assert [len(items) for items in runs] == [39, 38]
    assert runs[0][0] == (2, 7, 2) and set(runs[0]) - set(runs[1]) == {(2, 7, 2)}
    assert report.flags[0] == ("dropped (2, 7, 2): the braid walk did not reach it within "
                               "its bounds")
    # no module is kept for the miss, and it is not a plain lookup failure
    assert (2, 7, 2) not in WILD3.context.root_reps
    assert not WILD3.context.walk.reached((2, 7, 2))
    with pytest.raises(NoExceptionalModuleError) as caught:
        materialize(ref_root(WILD3, [2, 7, 2]))
    assert caught.value.dims == (2, 7, 2)
    assert not isinstance(caught.value, LookupError)
    # the spent walk answers a second ask at once: no Hom space, no new sequence
    calls = []
    for layer in (classifier, modules):
        monkeypatch.setattr(layer, "hom_dim", lambda *args, real=layer.hom_dim:
                            calls.append(args) or real(*args))
    seen = len(WILD3.context.walk._seen)
    with pytest.raises(NoExceptionalModuleError):
        materialize(ref_root(WILD3, (2, 7, 2)))
    assert calls == [] and len(WILD3.context.walk._seen) == seen


def test_a_root_descriptor_reads_as_its_vector(monkeypatch):
    from stratsys import modules
    from stratsys.modules import ROOT, materialize, pair_hom_ext, ref_key, ref_root
    from stratsys.reps import hom_dim

    WILD3.context.clear()
    ref = ref_root(WILD3, [1, 2, 0])
    assert ref_dims(ref) == (1, 2, 0)
    assert ref_key(ref) == (ROOT, (1, 2, 0))
    assert ref.describe() == "rep(1, 2, 0)"
    rep = materialize(ref)
    assert materialize(ref) is rep and rep.dims == (1, 2, 0)
    # a module found on its vector is certified exceptional: no Hom space is
    # computed to say so
    calls = []
    monkeypatch.setattr(modules, "hom_dim", lambda *args: calls.append(args) or hom_dim(*args))
    assert pair_hom_ext(ref, ref) == (1, 0) and calls == []
    simple = ref_root(WILD3, (0, 1, 0))
    assert pair_hom_ext(ref, simple) == (hom_dim(rep, materialize(simple)), 0) == (2, 0)


def test_two_threads_search_the_wild_quiver_as_one_does():
    import sys
    import threading

    def outcome():
        witness, report = regular_css_search(WILD3, 8)
        return witness.describe(), report.checked, report.passed, report.flags

    WILD3.context.clear()
    expected = outcome()
    WILD3.context.clear()
    got = []
    barrier = threading.Barrier(2)

    def run():
        barrier.wait(timeout=10)
        got.append(outcome())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected] * 2


def test_exceptional_of_dims_unit_root():
    rep = exceptional_of_dims(WILD3, (2, 1, 0))
    assert rep is not None
    assert rep.dims == (2, 1, 0)
    assert exceptional_of_dims(WILD3, (1, 1, 1)) is None  # <d,d> != 1
