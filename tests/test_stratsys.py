from fractions import Fraction
from itertools import permutations

import pytest

from stratsys.classifier import enumerate_css_kronecker, kronecker_orbit_pool
from stratsys.modules import pair_hom, ref_plain, ref_preinj, ref_preproj
from stratsys.quiver import canonical_apq, kronecker
from stratsys.report import CheckReport
from stratsys.reps import make_rep
from stratsys.systems import (StratSystem, _exceptional_sequences, check_css, check_ss,
                              extend_to_complete, is_filtration_finite)
from stratsys.tubes import (fg_system, max_regular_ss_size,
                            regular_exceptional_pool)


def _kron_refs(q):
    return (ref_preproj(q, 1, 0), ref_preproj(q, 2, 0),
            ref_preinj(q, 1, 0), ref_preinj(q, 2, 0))


def test_check_ss_passes_i2_p1(kron2):
    p1, p2, i1, i2 = _kron_refs(kron2)
    assert check_ss(StratSystem(kron2, (i2, p1))).passed


def test_check_ss_reversed_fails_with_named_violation(kron2):
    p1, p2, i1, i2 = _kron_refs(kron2)
    report = check_ss(StratSystem(kron2, (p1, i2)))
    assert not report.passed
    violation = report.violations[0]
    assert violation.axiom.startswith("ext-vanishing")
    assert violation.subject == (2, 1)
    assert violation.value == 2


def test_check_ss_asks_each_ordered_pair_once_and_reports_every_violation(
        kron2, monkeypatch):
    from stratsys import systems

    calls = []
    real = systems.pair_hom_ext
    monkeypatch.setattr(systems, "pair_hom_ext", lambda a, b: calls.append(1) or real(a, b))
    # a (1, 1) brick has End = k and Ext^1 = k, so it is no member
    brick = ref_plain(make_rep(kron2, (1, 1), {a.label: [[Fraction(k + 1)]]
                                               for k, a in enumerate(kron2.arrows)}))
    report = check_ss(StratSystem(kron2, (brick, ref_preproj(kron2, 1, 0), brick)))
    assert len(calls) == 6  # the three self-pairs and the three pairs j > i
    assert report.checked == 15
    hom, ext = "hom-vanishing Hom(X_j,X_i)", "ext-vanishing Ext1(X_j,X_i)"
    assert [(v.axiom, v.subject, v.value, v.note) for v in report.violations] == [
        ("indecomposable-exceptional", (1,), (1, 1), "rep(1, 1)"),
        ("indecomposable-exceptional", (3,), (1, 1), "rep(1, 1)"),
        (ext, (1, 1), 1, ""), (hom, (2, 1), 1, ""), (hom, (3, 1), 1, ""),
        (ext, (3, 1), 1, ""), (ext, (3, 2), 1, ""), (ext, (3, 3), 1, "")]


def test_check_ss_fg_with_p0():
    fg = fg_system(2, 3)
    quiv = fg.quiver
    extended = StratSystem(quiv, (ref_preinj(quiv, 4, 0),) + fg.modules
                           + (ref_preproj(quiv, 0, 0),))
    assert check_css(extended).passed


def test_check_css_incomplete(kron2):
    fg = fg_system(2, 3)
    report = check_css(fg)
    assert not report.passed
    assert any(v.note == "incomplete" for v in report.violations)


def test_check_css_repeated_module_fails(kron2):
    p1, p2, _, _ = _kron_refs(kron2)
    report = check_css(StratSystem(kron2, (p1, p2, p1)))
    assert not report.passed


def test_order_reversal_sanity(kron2):
    # any reordering that breaks a nonzero Hom pair must fail
    p1, p2, _, _ = _kron_refs(kron2)
    good = StratSystem(kron2, (p1, p2))
    assert check_ss(good).passed
    assert pair_hom(p1, p2) != 0
    assert not check_ss(StratSystem(kron2, (p2, p1))).passed


def test_incli_bound_over_generated_systems(kron2):
    # every passing system in sight respects size <= vertex count
    systems = [StratSystem(kron2, (_kron_refs(kron2)[3], _kron_refs(kron2)[0])),
               fg_system(2, 3), fg_system(3, 3)]
    for s in systems:
        if check_ss(s).passed:
            assert s.size <= s.quiver.n


def test_filtration_finite_matches_corollary(kron2):
    p1, p2, i1, i2 = _kron_refs(kron2)
    assert not is_filtration_finite(StratSystem(kron2, (i2, p1)))
    assert is_filtration_finite(StratSystem(kron2, (p1, p2)))
    assert is_filtration_finite(StratSystem(kron2, (ref_preproj(kron2, 1, 1),
                                                    ref_preproj(kron2, 2, 1))))


def test_extend_single_slot_front_and_back(kron2):
    p1 = ref_preproj(kron2, 1, 0)
    before, report = extend_to_complete(StratSystem(kron2, (p1,)), positions=[0])
    assert before is not None and before.describe() == "(I_2, P_1)"
    assert not report.flags  # unique completion, no inconsistency
    after, report = extend_to_complete(StratSystem(kron2, (p1,)), positions=[1])
    assert after is not None and after.describe() == "(P_1, P_2)"


def test_two_completions_in_one_slot_are_flagged(monkeypatch, kron2):
    # completions are unique per slot; a kernel that reports two different
    # modules in front of P_1 (items 1 and 2 of P_1 + pool) must be flagged
    from stratsys import systems

    monkeypatch.setattr(systems, "_exceptional_sequences",
                        lambda pool, length, **kwargs: iter([(1, 0), (2, 0)]))
    _, report = extend_to_complete(StratSystem(kron2, (ref_preproj(kron2, 1, 0),)))
    assert len(report.flags) == 1
    assert report.flags[0].startswith("uniqueness violated: multiple completions in slot 0: ")


def test_extend_fg_outer_finds_family_one():
    fg = fg_system(2, 3)
    completion, report = extend_to_complete(fg, exponent_bound=4,
                                            positions="outer")
    assert completion is not None
    assert check_css(completion).passed
    # the listed (S_{p+q-1}, F, G, P_0) completion is among the valid ones
    quiv = fg.quiver
    listed = StratSystem(quiv, (ref_preinj(quiv, 4, 0),) + fg.modules
                         + (ref_preproj(quiv, 0, 0),))
    assert check_css(listed).passed


def test_extend_already_complete_returns_input(kron2):
    s = StratSystem(kron2, (ref_preinj(kron2, 2, 0), ref_preproj(kron2, 1, 0)))
    out, report = extend_to_complete(s)
    assert out is s


def test_extend_unique_slot_after_fixing_y():
    fg = fg_system(2, 3)
    quiv = fg.quiver
    with_y = StratSystem(quiv, fg.modules + (ref_preproj(quiv, 0, 0),))
    completion, report = extend_to_complete(with_y, positions=[0],
                                            exponent_bound=6)
    assert completion is not None
    assert completion.modules[0].describe() == "I_4"  # S_{p+q-1} at the source
    assert not any("uniqueness" in f for f in report.flags)


def _brute_force_sequences(pool, n):
    """Every index sequence of length <= n whose modules pass check_ss, by
    trying all permutations (stopping once a length admits none)."""
    found = set()
    for k in range(1, n + 1):
        hits = {perm for perm in permutations(range(len(pool)), k)
                if check_ss(StratSystem(pool[0].quiver,
                                        tuple(pool[i] for i in perm))).passed}
        if not hits:
            break
        found |= hits
    return found


def _kronecker_pool_with_regular_brick():
    """Orbit modules plus the (1, 1) regular brick, which has a self-extension."""
    q = kronecker(2)
    brick = make_rep(q, (1, 1), {a.label: [[1]] for a in q.arrows})
    return [ref_plain(brick)] + kronecker_orbit_pool(2, 4)


@pytest.mark.parametrize("build_pool, n", [
    (lambda: regular_exceptional_pool(canonical_apq(2, 3), 10), 5),
    (lambda: regular_exceptional_pool(canonical_apq(1, 2), 6), 3),
    (lambda: kronecker_orbit_pool(3, 13), 2),
    (_kronecker_pool_with_regular_brick, 2),
], ids=["apq23-regular", "apq12-regular", "kron3-orbits", "kron2-with-brick"])
def test_search_kernel_matches_brute_force(build_pool, n):
    pool = build_pool()
    seqs = list(_exceptional_sequences(pool, n))
    expected = _brute_force_sequences(pool, n)
    assert len(seqs) == len(set(seqs))  # each sequence is reached once
    assert set(seqs) <= expected  # every yielded sequence is a system
    assert {frozenset(s) for s in seqs} == {frozenset(s) for s in expected}
    longest = max(map(len, expected), default=0)
    assert max(map(len, seqs), default=0) == longest
    full = [s for s in expected if len(s) == n]
    assert next((s for s in seqs if len(s) == n), None) == min(full, default=None)
    if n == 2:
        assert set(seqs) == expected  # every ordering of every pair


def test_search_kernel_grows_each_member_set_once():
    # deterministic gate: the ordering search yielded 11,359 sequences here
    q = canonical_apq(3, 4)
    seqs = list(_exceptional_sequences(regular_exceptional_pool(q, 14), q.n))
    assert len({frozenset(s) for s in seqs}) == 1647
    assert len(seqs) == 3401
    assert max(map(len, seqs)) == 5


def test_an_insertion_search_grows_every_ordering():
    # where a step inserts, the order decides what fits, so every accepted
    # ordering is grown; the counts are those of the ordering search
    pool = regular_exceptional_pool(canonical_apq(2, 3), 10)
    report = CheckReport("insertion")
    seqs = list(_exceptional_sequences(pool, 5, slots=lambda size, last: range(size + 1),
                                       report=report))
    assert set(seqs) == _brute_force_sequences(pool, 5)
    assert (len(seqs), report.checked) == (398, 12088)


def test_a_dropped_search_frees_its_memo_without_the_cyclic_collector():
    import gc
    import weakref

    # the search's closures hold its items as they hold its facts
    pool = regular_exceptional_pool(canonical_apq(2, 3), 10)
    alive = weakref.ref(pool[0])
    gc.disable()
    try:
        search = _exceptional_sequences(pool, 5)
        next(search)
        del pool, search
        assert alive() is None
    finally:
        gc.enable()


def test_search_callers_match_brute_force():
    apq23 = canonical_apq(2, 3)
    pool = regular_exceptional_pool(apq23, 10)
    assert max_regular_ss_size(apq23, 10) == max(map(len, _brute_force_sequences(pool, 5)))
    pool = kronecker_orbit_pool(3, 13)
    found, _ = enumerate_css_kronecker(3, 13)
    expected = sorted(s for s in _brute_force_sequences(pool, 2) if len(s) == 2)
    assert [s.modules for s in found] == [tuple(pool[i] for i in s) for s in expected]


def test_euler_screen_agrees_with_structure():
    # the kernel answers "b may not follow a" when <dim b, dim a> != 0, by
    # dim Hom - dim Ext^1 = <dim b, dim a>; check that identity on structural
    # Hom and Ext^1, and that the kernel (screen and engine) accepts exactly
    # the pairs whose structural (hom, ext) is (0, 0)
    from stratsys.classifier import _screened_roots
    from stratsys.modules import exceptional_of_dims, materialize, ref_total_dim
    from stratsys.quiver import euler_form
    from stratsys.reps import ext1_dim_direct, hom_dim
    from stratsys.systems import build_candidates

    from conftest import wild_sample

    wild = wild_sample()
    found = [exceptional_of_dims(wild, d) for d in _screened_roots(wild, 6)]
    pools = [[ref_plain(rep) for rep in found if rep is not None],
             [r for r in build_candidates(canonical_apq(2, 3), 8) if ref_total_dim(r) <= 12]]
    assert [len(pool) for pool in pools] == [24, 35]
    for pool in pools:
        reps = [materialize(r) for r in pool]
        follows = set()
        for b, x in enumerate(reps):
            for a, y in enumerate(reps):
                hom, ext = hom_dim(x, y), ext1_dim_direct(x, y)
                assert hom - ext == euler_form(x.quiver, x.dims, y.dims)
                if (hom, ext) == (0, 0):
                    follows.add((a, b))
        assert {s for s in _exceptional_sequences(pool, 2) if len(s) == 2} == follows


def test_the_kernel_refuses_modules_over_two_quivers():
    # the Euler screen could answer this pair; it must not hide the mismatch
    items = [ref_preinj(kronecker(2), 1), ref_preproj(kronecker(3), 2)]
    with pytest.raises(ValueError, match="different quivers"):
        list(_exceptional_sequences(items, 2))
