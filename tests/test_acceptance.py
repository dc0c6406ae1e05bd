"""Acceptance suite: one test per criterion, each printing a PASS line with
its wall time and asserting the stated runtime budget.

All arithmetic is exact; every equality asserted here is an integer
equality, so the tolerance is zero throughout.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

from conftest import random_representation, structural_family_orbit_supports
from stratsys.apq import TUBE_INFTY, TUBE_ZERO, apq_algebra, tube_lambda
from stratsys.artheory import auslander_check, tau
from stratsys.classifier import (apq_families, compare_kronecker_enumeration,
                                 enumerate_css_kronecker, family5_index_zero,
                                 kronecker_css_list, kronecker_orbit_pool,
                                 kronecker_regular_selfext_check,
                                 sincerity_profile, verify_family_uniqueness,
                                 y_search)
from stratsys.modules import materialize, ref_dims
from stratsys.quiver import (canonical_apq, coxeter_transform, euler_form,
                             kronecker)
from stratsys.reps import (ext1_dim, ext1_dim_direct, hom_dim, injective,
                           is_brick, make_rep, projective)
from stratsys.systems import check_ss, is_filtration_finite
from stratsys.tubes import (fg_system, max_regular_ss_size, mouth_ss, support_formula,
                            tube_rigid_bound_check, verify_support_formula,
                            verify_tau_cycles)

GRID = [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]


def _lcm(a, b):
    g = a
    x = b
    while x:
        g, x = x, g % x
    return a * b // g


def _finish(name, started, budget):
    elapsed = time.perf_counter() - started
    print(f"{name}: PASS ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_kronecker_classification():
    """Printed Kronecker families pass at exponent <= 6; brute enumeration
    under the dimension caps finds nothing outside the (flag-corrected) list."""
    started = time.perf_counter()
    for m in (2, 3):
        instances = kronecker_css_list(m, 6)
        for inst in instances:
            assert inst.report.passed, (m, inst.label(), inst.report.summary())
        extra = family5_index_zero(m)
        assert extra.report.passed  # the flagged i=0 member is genuine
    for m, cap in ((2, 9), (3, 13)):
        report = compare_kronecker_enumeration(m, cap)
        assert report.passed, report.summary()
        assert any("family 5 extends to i=0" in f for f in report.flags)
    _finish("CRITERION 1 (kronecker classification)", started, 60)


def test_criterion_2_regular_self_extensions():
    """Sampled regular bricks of dimension (1,1) all have self-extensions."""
    started = time.perf_counter()
    for m in (2, 3):
        report = kronecker_regular_selfext_check(m)
        assert report.passed, report.summary()
        q = kronecker(m)
        for lam in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)):
            maps = {a.label: [[lam ** k]] for k, a in enumerate(q.arrows)}
            rep = make_rep(q, (1, 1), maps)
            assert is_brick(rep)
            assert ext1_dim(rep, rep) >= 1
            assert ext1_dim_direct(rep, rep) >= 1
    _finish("CRITERION 2 (regular self-extensions)", started, 5)


def test_criterion_3_oracle_equivalence():
    """Euler-route and presentation-route Ext agree, and the Euler form
    equals hom - ext, on 100 random pairs per quiver."""
    started = time.perf_counter()
    rng = random.Random(29012024)
    for q in (kronecker(2), kronecker(3), canonical_apq(2, 3)):
        for _ in range(100):
            x = random_representation(q, rng)
            y = random_representation(q, rng)
            hom = hom_dim(x, y)
            ext = ext1_dim(x, y)
            assert ext == ext1_dim_direct(x, y)
            assert hom - ext == euler_form(q, x.dims, y.dims)
    _finish("CRITERION 3 (oracle equivalence, 100 pairs/quiver)", started, 30)


def _materialized_criterion_1_2_modules():
    out = []
    k2 = kronecker(2)
    for inst in kronecker_css_list(2, 6) + [family5_index_zero(2)]:
        out.extend(inst.system.modules)
    out.extend(kronecker_orbit_pool(3, 13))
    reps = []
    seen = set()
    for ref in out:
        key = (ref.quiver, ref_dims(ref))
        if key in seen:
            continue
        seen.add(key)
        reps.append(materialize(ref))
    for m in (2, 3):
        q = kronecker(m)
        for lam in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)):
            maps = {a.label: [[lam ** k]] for k, a in enumerate(q.arrows)}
            reps.append(make_rep(q, (1, 1), maps))
    return reps


def test_criterion_4_tau_consistency():
    """dim tau(M) = Phi(dim M) and the Auslander formula hold structurally
    for every materialized module from criteria 1-2 and every simple regular
    of the (2,3) cycle quiver."""
    started = time.perf_counter()
    modules = _materialized_criterion_1_2_modules()
    alg = apq_algebra(2, 3)
    for label in (TUBE_INFTY, TUBE_ZERO):
        modules.extend(alg.simple_regular(label, i)
                       for i in range(1, alg.tube_rank(label) + 1))
    for lam in (1, 2, Fraction(1, 2), -1):
        modules.append(alg.simple_regular(tube_lambda(lam), 1))
    checked = 0
    by_quiver = {}
    for m in modules:
        t = tau(m)
        if t.is_zero():
            continue  # projective: nothing to compare
        phi = coxeter_transform(m.quiver)
        assert t.dims == phi.apply(m.dims), m.dims
        assert auslander_check(m, m).passed
        checked += 1
        by_quiver.setdefault(m.quiver, []).append(m)
    # cross pairs, a sample per quiver
    for q, mods in by_quiver.items():
        for x, y in zip(mods, mods[1:] + mods[:1]):
            assert auslander_check(x, y).passed
    assert checked >= 20
    _finish(f"CRITERION 4 (tau consistency, {checked} modules)", started, 30)


def test_criterion_5_tube_facts():
    """tau cycles, mouth systems of size rank-1, and the in-tube rigidity
    bounds across the (p, q) grid."""
    started = time.perf_counter()
    for p, q in GRID:
        report = verify_tau_cycles(p, q)
        assert report.passed, report.summary()
        for label, rank in ((TUBE_INFTY, p), (TUBE_ZERO, q)):
            ms = mouth_ss(p, q, label)
            assert ms.size == rank - 1
            assert check_ss(ms).passed
            if rank <= 4:
                bound = tube_rigid_bound_check(p, q, label)
                assert bound.passed, bound.summary()
        lam_bound = tube_rigid_bound_check(p, q, tube_lambda(1))
        assert lam_bound.passed
        assert mouth_ss(p, q, tube_lambda(1)).size == 0
    _finish("CRITERION 5 (tube facts)", started, 60)


def test_criterion_6_support_formula():
    """Closed-form supports of the shifted families equal the structurally
    computed ones for all |n| <= 2 lcm(p, q) over the grid."""
    started = time.perf_counter()
    for p, q in GRID:
        n_max = 2 * _lcm(p, q)
        report = verify_support_formula(p, q, n_max)
        assert report.passed, report.summary()
        for which in ("F", "G"):
            structural = structural_family_orbit_supports(p, q, which, n_max)
            for n, support in structural.items():
                assert support_formula(p, q, which, n) == support, (p, q, which, n)
    _finish("CRITERION 6 (support formula)", started, 60)


def test_criterion_7_regular_size_bound():
    """Exhaustive bounded search never beats p+q-2 regular members, with
    equality reached at (2,3) and (3,3)."""
    started = time.perf_counter()
    results = {}
    for p, q in GRID:
        quiv = canonical_apq(p, q)
        best = max_regular_ss_size(quiv, 2 * (p + q))
        results[(p, q)] = best
        assert best <= p + q - 2, (p, q, best)
    assert results[(2, 3)] == 3
    assert results[(3, 3)] == 4
    assert max_regular_ss_size(kronecker(2), 8) == 0
    print(f"  max regular sizes: {results}")
    _finish("CRITERION 7 (regular size bound)", started, 300)


def test_criterion_7_reaches_the_tame_bound_at_ranks_5_and_6():
    """The paper's tame bound n - 2 = p + q - 2, reached exactly: one search
    per orthogonal block keeps the two tubes from multiplying."""
    started = time.perf_counter()
    for p, q in [(4, 5), (5, 6)]:
        assert max_regular_ss_size(canonical_apq(p, q), 2 * (p + q)) == p + q - 2, (p, q)
    _finish("CRITERION 7 at (4, 5) and (5, 6)", started, 10)


def test_criterion_8_family_catalogue_2_3():
    """All twelve families at (2,3) for t <= 12 pass; the (F,G,Y) searches
    reproduce the catalogued lists; each listed first member is recovered as
    the unique completion."""
    started = time.perf_counter()
    instances = apq_families(2, 3, 12)
    assert len(instances) == 22
    for inst in instances:
        assert inst.report.passed, (inst.label(), inst.report.summary())
    found_post, report_post = y_search(2, 3, 12, "postprojective")
    assert report_post.passed, report_post.summary()
    found_pre, report_pre = y_search(2, 3, 12, "preinjective")
    assert report_pre.passed, report_pre.summary()
    assert (0, 0) in found_post and (3, 1) in found_post
    assert (3, 2) in found_pre and (5, 0) in found_pre
    for inst in instances:
        unique = verify_family_uniqueness(inst)
        assert unique.passed, (inst.label(), unique.summary())
        assert unique.checked == 2 and not unique.flags, inst.label()
    _finish("CRITERION 8 ((X,F,G,Y) catalogue at (2,3), incl. uniqueness)", started, 300)


def test_criterion_9_sincerity_profiles():
    """Minimal sincere exponents match the short-arm and endpoint claims;
    long-arm edge-range disagreements are flagged, never silently passed."""
    started = time.perf_counter()
    profile = sincerity_profile(2, 3, 8)
    assert profile.report.passed, profile.report.summary()
    assert profile.minimal_preproj[0] == 2
    assert profile.minimal_preproj[1] == 1
    assert profile.minimal_preproj[4] == 0
    assert profile.minimal_preinj[0] == 0
    assert profile.minimal_preinj[1] == 1
    # the catalogued long-arm ranges disagree with computation at vertex 2 of
    # the preinjective side; the profile must surface that
    assert any("preinj minimal exponent at vertex 2" in f
               for f in profile.report.flags)
    print(f"  flags: {profile.report.flags}")
    _finish("CRITERION 9 (sincerity profiles)", started, 60)


def test_criterion_10_property_suite():
    """Cross-cutting invariants: the size bound for every system the suite
    produces, filtration-finiteness verdicts, and the defining properties of
    the numerical layer (the per-module invariants live in the unit tests)."""
    started = time.perf_counter()
    produced = []
    for m in (2, 3):
        for inst in kronecker_css_list(m, 4) + [family5_index_zero(m)]:
            produced.append(inst.system)
    produced.extend(inst.system for inst in apq_families(2, 3, 6))
    for p, q in GRID:
        produced.append(fg_system(p, q))
        produced.append(mouth_ss(p, q, TUBE_ZERO))
    for system in produced:
        if check_ss(system).passed:
            assert system.size <= system.quiver.n  # size never exceeds the vertex count
    # filtration-category verdicts across every complete system found by the
    # m=2 enumeration: only the simples pair generates the whole category
    found, _ = enumerate_css_kronecker(2, 9)
    infinite = 0
    for system in found:
        dims = tuple(ref_dims(r) for r in system.modules)
        finite = is_filtration_finite(system)
        if dims == ((0, 1), (1, 0)):
            assert not finite
            infinite += 1
        else:
            assert finite
    assert infinite == 1
    # Coxeter defining property on every grid quiver
    for p, q in GRID:
        quiv = canonical_apq(p, q)
        phi = coxeter_transform(quiv)
        for v in quiv.vertices:
            proj = projective(quiv, v)
            inj = injective(quiv, v)
            assert phi.apply(proj.dims) == tuple(-x for x in inj.dims)
    # Yoneda on a quiver from the grid
    quiv = canonical_apq(2, 3)
    rng = random.Random(77)
    for _ in range(10):
        m = random_representation(quiv, rng)
        for v in quiv.vertices:
            assert hom_dim(projective(quiv, v), m) == m.dim_at(v)
    _finish("CRITERION 10 (property suite)", started, 120)
