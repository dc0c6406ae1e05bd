"""The search kernel places the last member of a sequence on its Euler line.

Each search here runs twice: once with the kernel, and once with a scan that
tries every pick at every slot and checks each pair directly with
``pair_hom_ext`` (no Euler screen, no line, no facts of its own).  Both must
yield the same sequences in the same order up to where the caller stops,
and give the same reports, flags and check counts (but for the flags of
vectors dropped for want of a module: the scan asks about more vectors).
Every last-level solution space the kernel meets must be one-dimensional."""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from stratsys import classifier, systems
from stratsys.classifier import (FamilyInstance, apq_families, enumerate_css_kronecker,
                                 regular_css_search, verify_family_uniqueness)
from stratsys.cli import main
from stratsys.modules import pair_hom_ext, ref_dims
from stratsys.quiver import _euler_matrix, canonical_apq
from stratsys.systems import StratSystem, check_css, completion_ray, extend_to_complete

from conftest import one_short_systems, wild_sample

REPO_ROOT = Path(__file__).resolve().parent.parent


def _scan(pool, length, start=(), slots=None, report=None):
    """The kernel's search order and check count, by brute force."""
    refs = tuple(start) + tuple(pool)
    first = len(start)
    grown = set() if slots is None else None
    slots = slots or (lambda size, last: (size,))

    def grow(seq, last):
        if grown is not None:
            grown.add(frozenset(seq))
        for pos in slots(len(seq), last):
            for i in range(first, len(refs)):
                if report is not None:
                    report.checked += 1
                if (all(pair_hom_ext(refs[i], refs[j]) == (0, 0) for j in seq[:pos])
                        and all(pair_hom_ext(refs[j], refs[i]) == (0, 0) for j in seq[pos:])
                        and pair_hom_ext(refs[i], refs[i]) == (1, 0)):
                    child = seq[:pos] + (i,) + seq[pos:]
                    yield child
                    if len(child) < length and (grown is None
                                                or frozenset(child) not in grown):
                        yield from grow(child, pos)

    return grow(tuple(range(first)), 0)


def _logged(kernel, runs):
    """``kernel``, logging each run's yielded sequences as modules."""
    def search(pool, length, start=(), slots=None, report=None):
        refs = tuple(start) + tuple(pool)
        log = []
        runs.append(log)
        for seq in kernel(pool, length, start=start, slots=slots, report=report):
            log.append(tuple(refs[i] for i in seq))
            yield seq
    return search


def _line_and_scan(monkeypatch, search, quiver=None):
    """(result, per-run logs) of ``search`` with the kernel, then with the
    scan, each from cleared memos; and the widths of the line solution
    spaces the kernel met."""
    widths = []
    real_kernel = systems.kernel_matrix

    def kernel_matrix(matrix):
        basis = real_kernel(matrix)
        widths.append(basis.cols)
        return basis

    monkeypatch.setattr(systems, "kernel_matrix", kernel_matrix)
    out = []
    for kernel in (systems._exceptional_sequences, _scan):
        runs = []
        for module in (systems, classifier):
            monkeypatch.setattr(module, "_exceptional_sequences", _logged(kernel, runs))
        if quiver is not None:
            quiver.context.clear()
        out.append((search(), runs))
    return out, widths


def _one_slot_searches(p, q):
    quiver = canonical_apq(p, q)
    tbound = 2 * p * q  # coprime p, q: the CLI default, with its exponent bound
    instances = apq_families(p, q, tbound)
    return quiver, instances, [StratSystem(quiver, inst.system.modules[1:])
                               for inst in instances], tbound + max(p, q) + 1


def _summary(found, report):
    return (None if found is None else found.describe(), report.checked, report.flags,
            [v.axiom for v in report.violations])


@pytest.mark.parametrize("p, q, count", [(2, 3, 22), (3, 4, 30)])
def test_apq_one_slot_searches_match_the_scan(monkeypatch, p, q, count):
    quiver, _, rests, bound = _one_slot_searches(p, q)
    assert len(rests) == count

    def search():
        return [_summary(*extend_to_complete(rest, exponent_bound=bound, positions=[0]))
                for rest in rests]

    (line, scan), widths = _line_and_scan(monkeypatch, search, quiver)
    assert line == scan
    assert all(found is not None and not flags for found, _, flags, _ in line[0])
    assert widths == [1] * count  # one line per search, at its one slot


@pytest.mark.parametrize("p, q", [(2, 3), (3, 4), (5, 7)])
def test_family_uniqueness_reads_the_one_slot_search_off_the_line(p, q):
    quiver, instances, rests, bound = _one_slot_searches(p, q)
    form = _euler_matrix(quiver)
    for inst, rest in zip(instances, rests):
        report = verify_family_uniqueness(inst)
        assert report.passed and report.checked == 2, report.summary()
        found, _ = extend_to_complete(rest, exponent_bound=bound, positions=[0])
        line = completion_ray(form, [ref_dims(m) for m in rest.modules], 0)
        assert line == ref_dims(found.modules[0]) == ref_dims(inst.listed_x), inst.label()


def _with_first(inst, x, rest):
    system = StratSystem(inst.system.quiver, (x, *rest))
    return FamilyInstance(inst.family_id, inst.params, system, listed_x=x,
                          report=check_css(system))


def test_a_wrong_first_member_is_named_as_the_search_names_the_true_one():
    _, instances, rests, bound = _one_slot_searches(3, 4)
    for inst, rest in zip(instances, rests):
        other = next(o.listed_x for o in instances
                     if ref_dims(o.listed_x) != ref_dims(inst.listed_x))
        report = verify_family_uniqueness(_with_first(inst, other, rest.modules))
        found, _ = extend_to_complete(rest, exponent_bound=bound, positions=[0])
        assert [v.axiom for v in report.violations] == ["recovered-x"], report.summary()
        assert report.violations[0].value == (inst.listed_x.describe(), other.describe())
        assert report.violations[0].value[0] == found.modules[0].describe()
        assert report.checked == 2


def test_a_rest_that_fails_its_axioms_has_no_completion():
    _, instances, rests, bound = _one_slot_searches(2, 3)
    for inst, rest in zip(instances, rests):
        broken = rest.modules[:-1] + rest.modules[:1]  # a member twice: Hom(E, E) != 0
        report = verify_family_uniqueness(_with_first(inst, inst.listed_x, broken))
        assert [v.axiom for v in report.violations] == ["completion-found"]
        assert report.checked == 1
        old = extend_to_complete(StratSystem(rest.quiver, broken), exponent_bound=bound,
                                 positions=[0])
        assert old[0] is None


@pytest.mark.parametrize("mode", ["front", "back", "outer", "any"])
def test_ss_extend_matches_the_scan(monkeypatch, capsys, tmp_path, mode):
    files = [REPO_ROOT / "samples" / "fg_p2q3.ss.json",
             REPO_ROOT / "samples" / "kronecker_simples.ss.json",
             *one_short_systems(tmp_path)]

    def search():
        outs = []
        for path in files:
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = main(["--json", "ss", "extend", str(path), "--positions", mode])
            outs.append((code, buffer.getvalue()))
        return outs

    (line, scan), widths = _line_and_scan(monkeypatch, search)
    assert line == scan
    assert widths and set(widths) == {1}


@pytest.mark.parametrize("cap", [6, 8])
def test_regular_css_search_matches_the_scan(monkeypatch, cap):
    wild = wild_sample()
    (line, scan), widths = _line_and_scan(
        monkeypatch, lambda: _summary(*regular_css_search(wild, cap)), wild)
    # a vector with no module found is dropped, with a flag, and the search
    # runs again; the scan asks about vectors that the Euler screen spares
    # the kernel, so it may drop more: compare the rest, and the final runs
    def drops(summary):
        return [flag for flag in summary[2] if flag.startswith("dropped ")]

    def rest(summary):
        return (*summary[:2], [flag for flag in summary[2] if flag not in drops(summary)],
                summary[3])

    assert set(drops(line[0])) <= set(drops(scan[0]))
    assert rest(line[0]) == rest(scan[0])
    assert line[1][-1] == scan[1][-1]
    assert widths and set(widths) == {1}


def test_kronecker_enumeration_matches_the_scan(monkeypatch):
    def search():
        found, report = enumerate_css_kronecker(3, 13)
        return [s.describe() for s in found], report.checked, report.flags

    (line, scan), widths = _line_and_scan(monkeypatch, search)
    assert line == scan
    assert widths and set(widths) == {1}
