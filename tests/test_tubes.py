import sys
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from stratsys.apq import (TUBE_INFTY, TUBE_ZERO, ApqAlgebra, TubePoint, apq_algebra,
                          mouth_dim_vector, recognize_apq, tube_lambda,
                          tube_point_dim_vector)
from stratsys.artheory import ar_position
from stratsys.modules import ref_dims
from stratsys.quiver import canonical_apq, kronecker
from stratsys.reps import ext1_dim, hom_dim, is_brick
from stratsys.systems import check_ss
from stratsys.tubes import (_ext_orthogonal_families, _family_orbit_supports, fg_system,
                            max_regular_ss_size, mouth_ss, support_formula,
                            tube_rigid_bound_check, verify_support_formula,
                            verify_tau_cycles)

from conftest import structural_family_orbit_supports, whole_pool_max_regular_ss_size

GRID = [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]


def test_simple_regular_dim_vectors():
    alg = apq_algebra(2, 3)
    assert alg.simple_regular(TUBE_INFTY, 2).dims == (1, 0, 1, 1, 1)
    assert alg.simple_regular(TUBE_ZERO, 3).dims == (1, 1, 0, 0, 1)
    assert alg.simple_regular(tube_lambda(Fraction(1, 2)), 1).dims == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        alg.simple_regular(TUBE_INFTY, 3)


def test_simple_regulars_are_orthogonal_bricks():
    for p, q in ((2, 3), (3, 4)):
        alg = apq_algebra(p, q)
        for label in (TUBE_INFTY, TUBE_ZERO):
            mouths = [alg.simple_regular(label, i)
                      for i in range(1, alg.tube_rank(label) + 1)]
            for i, x in enumerate(mouths):
                assert is_brick(x)
                for j, y in enumerate(mouths):
                    if i != j:
                        assert hom_dim(x, y) == 0


def test_simple_regulars_are_regular():
    alg = apq_algebra(2, 3)
    for label, index in ((TUBE_INFTY, 1), (TUBE_INFTY, 2), (TUBE_ZERO, 3),
                         (tube_lambda(2), 1)):
        assert ar_position(alg.simple_regular(label, index)).kind == "Regular"


@pytest.mark.parametrize("p,q", GRID)
def test_tau_cycles_grid(p, q):
    report = verify_tau_cycles(p, q)
    assert report.passed, report.summary()


def test_tau_cycles_flags_both_mouth_relations():
    report = verify_tau_cycles(2, 3)
    assert "tau E_q^(0) = E_{q-1}^(0) holds" in report.flags
    assert "tau E_1^(0) = E_q^(0) holds" in report.flags


def test_tau_cycles_rank_one_fixed_points():
    report = verify_tau_cycles(1, 1)
    assert report.passed, report.summary()


def test_fg_system_instances():
    s = fg_system(2, 3)
    assert [m.describe() for m in s.modules] == ["E^(inf)_1", "E^(0)_2", "E^(0)_1"]
    assert [ref_dims(m) for m in s.modules] == [
        (0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0)]
    assert check_ss(s).passed

    s12 = fg_system(1, 2)
    assert s12.size == 1  # F empty at p = 1
    assert check_ss(s12).passed

    s33 = fg_system(3, 3)
    assert s33.size == 4
    assert check_ss(s33).passed


@pytest.mark.parametrize("p,q", GRID)
def test_fg_size_and_pass(p, q):
    s = fg_system(p, q)
    assert s.size == p + q - 2
    assert check_ss(s).passed


def test_support_formula_examples():
    assert support_formula(2, 3, "F", 2) == {1}
    assert support_formula(2, 3, "F", 1) == {0, 2, 3, 4}
    assert support_formula(2, 3, "G", -1) == {0, 1, 3, 4}
    assert support_formula(1, 2, "F", 3) == set()


def test_verify_support_formula_small_cases():
    assert verify_support_formula(2, 3, 12).passed
    assert verify_support_formula(1, 2, 4).passed
    assert verify_support_formula(3, 3, 12).passed


@pytest.mark.parametrize("p,q", GRID + [(2, 5), (5, 5)])
def test_the_tau_cycle_gives_the_structural_orbit_supports(p, q):
    # tau^n E_i = E_{i-n} read off the mouth, against n structural translates
    n_max = 2 * lcm(p, q)
    for which in ("F", "G"):
        assert _family_orbit_supports(p, q, which, n_max) == \
            structural_family_orbit_supports(p, q, which, n_max), which


def test_apq_tubes_translates_only_in_the_tau_cycle_check(monkeypatch, capsys):
    # the supports come off the tau-cycle and Ext^1 from the engine, so
    # ``apq tubes`` builds no tube point and takes no inverse translate and
    # no structural Ext^1; its tau calls are those of ``verify_tau_cycles``
    from stratsys import artheory, reps
    from stratsys.cli import main

    calls = dict.fromkeys(("tau", "tau_inv", "ext1_dim", "tube_point"), 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    loaded = [m for key, m in list(sys.modules.items()) if key.startswith("stratsys")]
    for name, home in (("tau", artheory), ("tau_inv", artheory), ("ext1_dim", reps)):
        real = getattr(home, name)
        for module in loaded:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    monkeypatch.setattr(ApqAlgebra, "tube_point", counted("tube_point", ApqAlgebra.tube_point))
    canonical_apq(5, 6).context.clear()
    assert verify_tau_cycles(5, 6).passed
    anchor = calls["tau"]
    assert anchor > 0
    calls.update(dict.fromkeys(calls, 0))
    assert main(["--json", "apq", "tubes", "--p", "5", "--q", "6"]) == 0
    capsys.readouterr()
    assert calls["tau"] <= anchor
    assert calls["tau_inv"] == calls["ext1_dim"] == calls["tube_point"] == 0


def test_mouth_ss_examples():
    zero = mouth_ss(2, 3, TUBE_ZERO)
    assert [m.describe() for m in zero.modules] == ["E^(0)_2", "E^(0)_1"]
    assert check_ss(zero).passed
    infty = mouth_ss(2, 3, TUBE_INFTY)
    assert [m.describe() for m in infty.modules] == ["E^(inf)_1"]
    assert check_ss(infty).passed
    lam = mouth_ss(2, 3, tube_lambda(1))
    assert lam.size == 0


@pytest.mark.parametrize("p,q", GRID)
def test_mouth_ss_size_is_rank_minus_one(p, q):
    for label, rank in ((TUBE_INFTY, p), (TUBE_ZERO, q)):
        s = mouth_ss(p, q, label)
        assert s.size == rank - 1
        assert check_ss(s).passed


def test_tube_point_realization():
    alg = apq_algebra(2, 3)
    pt = TubePoint(TUBE_ZERO, 1, 2)
    rep = alg.tube_point(pt)
    assert rep.dims == tube_point_dim_vector(2, 3, pt)
    assert is_brick(rep)
    assert ext1_dim(rep, rep) == 0  # level 2 < rank 3: rigid
    full = alg.tube_point(TubePoint(TUBE_ZERO, 1, 3))
    assert ext1_dim(full, full) >= 1  # level = rank: self-extensions


@pytest.mark.parametrize("p,q", [(2, 3), (3, 4)])
def test_tube_point_dims_close_the_sum_of_mouth_vectors(p, q):
    # whole turns of the tube add the sum of all mouth vectors; compare with
    # the running sum of ``level`` mouth vectors
    for label in (TUBE_INFTY, TUBE_ZERO, tube_lambda(1)):
        rank = apq_algebra(p, q).tube_rank(label)
        for index in range(1, rank + 1):
            running = [0] * (p + q)
            for level in range(1, 3 * rank + 1):
                mouth = mouth_dim_vector(p, q, label, (index - 2 + level) % rank + 1)
                running = [x + y for x, y in zip(running, mouth)]
                point = TubePoint(label, index, level)
                assert tube_point_dim_vector(p, q, point) == tuple(running)


def test_tube_point_rigidity_bound_examples():
    # rank 3 tube: a single rigid point of level 2 meets the bound 3 - 1
    report = tube_rigid_bound_check(2, 3, TUBE_ZERO)
    assert report.passed and report.checked >= 1
    # rank 2 tube: the two mouths extend each other, never rigid together
    alg = apq_algebra(2, 3)
    e1 = alg.simple_regular(TUBE_INFTY, 1)
    e2 = alg.simple_regular(TUBE_INFTY, 2)
    assert ext1_dim(e1, e2) + ext1_dim(e2, e1) > 0
    # so the pair is excluded from the bound's hypothesis
    assert tube_rigid_bound_check(2, 3, TUBE_INFTY).passed
    # rank 1 tube: nothing rigid at all
    assert tube_rigid_bound_check(2, 3, tube_lambda(1)).passed


def test_orthogonal_families_match_the_filtered_subsets():
    # rank 4: the grown families are the subsets the pairwise filter keeps,
    # in the order of combinations
    alg = apq_algebra(3, 4)
    points = [TubePoint(TUBE_ZERO, i, j) for i in range(1, 5) for j in range(1, 6)]
    ext = {(a, b): ext1_dim(alg.tube_point(a), alg.tube_point(b))
           for a in points for b in points}
    rigid = [pt for pt in points if ext[(pt, pt)] == 0]
    filtered = [family for size in range(1, len(rigid) + 1)
                for family in combinations(rigid, size)
                if not any(ext[(a, b)] for a in family for b in family)]
    assert _ext_orthogonal_families(rigid, ext) == filtered
    assert max(map(len, filtered)) == 3


def test_rank_six_tube_bounds():
    # 42 points, 30 of them rigid: filtering all 2**30 subsets is out of reach
    report = tube_rigid_bound_check(5, 6, TUBE_ZERO)
    assert report.passed and report.checked == 1744


def test_recognize_apq():
    assert recognize_apq(canonical_apq(2, 3)) == (2, 3)
    assert recognize_apq(canonical_apq(1, 2)) == (1, 2)
    assert recognize_apq(kronecker(2)) is None


def test_max_regular_examples():
    assert max_regular_ss_size(canonical_apq(1, 2), 6) == 1
    assert max_regular_ss_size(kronecker(2), 10) == 0
    assert max_regular_ss_size(canonical_apq(2, 3), 10) == 3


@pytest.mark.parametrize("p, q", GRID + [(2, 5), (1, 4), (4, 4), (3, 5)])
def test_the_block_sum_is_the_whole_pool_search(p, q):
    quiver = canonical_apq(p, q)
    assert max_regular_ss_size(quiver, 2 * (p + q)) == whole_pool_max_regular_ss_size(
        quiver, 2 * (p + q))


def test_a_pair_with_zero_euler_forms_and_nonzero_hom_shares_a_block(monkeypatch):
    # E^(0)_3[3] and E^(0)_1[3] over (3, 4): both Euler forms are 0, but
    # Hom and Ext^1 are 1 both ways, so neither order is a system
    from stratsys import tubes
    from stratsys.modules import pair_hom_ext, ref_tube
    from stratsys.quiver import euler_form

    quiver = canonical_apq(3, 4)
    pair = [ref_tube(3, 4, TUBE_ZERO, 3, 3), ref_tube(3, 4, TUBE_ZERO, 1, 3)]
    a, b = map(ref_dims, pair)
    assert euler_form(quiver, a, b) == euler_form(quiver, b, a) == 0
    assert pair_hom_ext(*pair) == pair_hom_ext(*pair[::-1]) == (1, 1)
    monkeypatch.setattr(tubes, "regular_exceptional_pool", lambda quiver, cap: pair)
    assert max_regular_ss_size(quiver, 14) == 1


def test_the_block_search_stays_under_its_ceilings(monkeypatch):
    # the whole-pool search yielded 3,401 sequences here, every interleaving
    # of sequences from the two tubes; Hom inside one tube has a closed form,
    # so no pair reaches the structure (94 structural Hom calls before)
    from stratsys import modules, tubes

    quiver = canonical_apq(3, 4)
    quiver.context.clear()
    hom_calls, yielded = [], []
    monkeypatch.setattr(modules, "hom_dim", lambda *args, real=modules.hom_dim:
                        hom_calls.append(args) or real(*args))
    search = tubes._exceptional_sequences
    monkeypatch.setattr(tubes, "_exceptional_sequences", lambda refs, length: (
        yielded.append(seq) or seq for seq in search(refs, length)))
    assert max_regular_ss_size(quiver, 14) == 5
    assert len(yielded) <= 131
    assert len(hom_calls) <= 0


def test_mouth_dim_vector_matches_reps():
    for p, q in GRID:
        alg = apq_algebra(p, q)
        for label in (TUBE_INFTY, TUBE_ZERO):
            for i in range(1, alg.tube_rank(label) + 1):
                assert alg.simple_regular(label, i).dims == mouth_dim_vector(p, q, label, i)
