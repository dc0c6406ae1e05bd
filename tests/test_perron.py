"""The exact Perron forms of a wild quiver (``quiver.PerronForms``): the
integer identities they are built from, the interval that isolates rho, the
sign theorem the regular screen and ``artheory.coxeter_position`` rest on,
the screen's pool against the Coxeter-walk oracle, and the Coxeter walks
the screen and the search do not take."""

import itertools
from fractions import Fraction
from operator import mul

import pytest

from stratsys.artheory import ArPosition, ar_position, coxeter_position
from stratsys.classifier import _screened_roots, regular_css_search
from stratsys.modules import PREINJ, PREPROJ, _orbit_dims, materialize, ref_dims
from stratsys.quiver import (CoxeterTransform, Quiver, _sturm_chain, _symmetrized_form,
                             _variations, canonical_apq, euler_form, kronecker)

from conftest import (box_screened_roots, doubled_triangle, ending_walk, six_vertex_star,
                      wild_sample)

WILD = {"wild-sample": wild_sample, "K3": lambda: kronecker(3),
        "doubled-triangle": doubled_triangle, "six-vertex-star": six_vertex_star}


def _det(rows) -> Fraction:
    """Determinant by Fraction elimination, a test oracle for chi."""
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return det


def _value(p, x: Fraction) -> Fraction:
    return sum(c * x ** j for j, c in enumerate(p))


@pytest.mark.parametrize("name", WILD)
def test_the_adjugate_and_chi_satisfy_the_cayley_identity(name):
    # Phi adj(L I - Phi) = L adj(L I - Phi) - chi(L) I, power by power
    q = WILD[name]()
    phi, perron = q.context.coxeter.matrix, q.context.perron
    n, chi, adj = q.n, perron.charpoly, perron.adjugate
    zero = ((0,) * n,) * n
    assert len(chi) == n + 1 and chi[n] == 1 and len(adj) == n
    for j in range(n + 1):
        m = adj[j] if j < n else zero
        lhs = [[sum(phi[i][t] * m[t][c] for t in range(n)) for c in range(n)] for i in range(n)]
        below = adj[j - 1] if j else zero
        rhs = [[below[i][c] - (chi[j] if i == c else 0) for c in range(n)] for i in range(n)]
        assert lhs == rhs, j
    for t in range(n + 2):
        shifted = [[(t if i == c else 0) - phi[i][c] for c in range(n)] for i in range(n)]
        assert _det(shifted) == _value(chi, Fraction(t))


def test_the_sturm_count_finds_the_distinct_real_roots():
    # (x - 1)^2 (x + 2) (2x - 3) (x^2 + 1): distinct real roots -2, 1, 3/2
    p = [1]
    for factor in ([-1, 1], [-1, 1], [2, 1], [-3, 2], [1, 0, 1]):
        p = [sum(p[i] * factor[j - i] for i in range(len(p)) if 0 <= j - i < len(factor))
             for j in range(len(p) + len(factor) - 1)]
    chain = _sturm_chain(p)

    def count(lo, hi, shift):
        return _variations(chain, lo, shift) - _variations(chain, hi, shift)

    assert count(-12, 8, 2) == 3       # (-3, 2]
    assert count(-12, 0, 2) == 1       # (-3, 0]
    assert count(0, 5, 2) == 1         # (0, 5/4]
    assert count(5, 8, 2) == 1         # (5/4, 2]
    assert count(7, 8, 2) == 0         # (7/4, 2]


@pytest.mark.parametrize("name", WILD)
def test_the_interval_isolates_the_largest_root_with_a_sign_change(name):
    perron = WILD[name]().context.perron
    chi = perron.charpoly
    lo, hi, shift = perron._box[:3]
    chain = _sturm_chain(chi)
    top = 1 << (max(map(abs, chi)).bit_length() + shift)  # above every root
    assert lo > 1 << shift
    assert _variations(chain, lo, shift) - _variations(chain, hi, shift) == 1
    assert _variations(chain, hi, shift) == _variations(chain, top, shift)
    assert _value(chi, Fraction(lo, 1 << shift)) < 0 < _value(chi, Fraction(hi, 1 << shift))


@pytest.mark.parametrize("name", WILD)
def test_the_forms_are_negative_on_preprojectives_and_preinjectives(name):
    # <y-, dim tau^-k P_i> = -rho^-(k+1) y-_i and dually for tau^k I_i
    q = WILD[name]()
    perron = q.context.perron
    for v in q.vertices:
        for k in range(7):
            assert perron.signs(_orbit_dims(q, PREPROJ, v, k))[0] < 0, (v, k)
            assert perron.signs(_orbit_dims(q, PREINJ, v, k))[1] < 0, (v, k)


def test_the_signs_are_those_of_the_closed_form_of_rho():
    # on the wild sample chi = (L + 1)(L^2 - 6 L + 1), so rho = 3 + 2 sqrt 2 and
    # c0 + c1 rho + c2 rho^2 = (c0 + 3 c1 + 17 c2) + (2 c1 + 12 c2) sqrt 2
    def sign(a, b):  # of a + b sqrt 2
        if a * b >= 0:
            return (a + b > 0) - (a + b < 0)
        return (a > 0) - (a < 0) if a * a > 2 * b * b else (b > 0) - (b < 0)

    q = wild_sample()
    q.context.clear()
    perron = q.context.perron
    assert perron.charpoly == [1, -5, -5, 1]
    zeros = 0
    for x in itertools.product(range(-4, 5), repeat=3):
        got = perron.signs(x)
        for k, rows in enumerate(perron.rows):
            c0, c1, c2 = (sum(map(mul, x, r)) for r in rows)
            assert got[k] == sign(c0 + 3 * c1 + 17 * c2, 2 * c1 + 12 * c2), (x, k)
        zeros += got.count(0)
    assert zeros > 2  # exact zeros off the zero vector are decided too


@pytest.mark.parametrize("cap", [8, 24])
def test_both_forms_are_positive_on_the_wild_witness(cap):
    q = wild_sample()
    witness, report = regular_css_search(q, cap)
    assert witness is not None and report.passed
    assert all(q.context.perron.signs(ref_dims(m)) == (1, 1) for m in witness.modules)


def test_the_perron_forms_need_a_wild_quiver():
    for q in (kronecker(2), canonical_apq(2, 3), kronecker(1)):
        with pytest.raises(ValueError):
            q.context.perron


def _count_orbit_walks(monkeypatch) -> list:
    walks = []
    walk = CoxeterTransform.ending_orbit
    monkeypatch.setattr(CoxeterTransform, "ending_orbit",
                        lambda *args, **kw: walks.append(args[1]) or walk(*args, **kw))
    return walks


@pytest.mark.parametrize("cap", [8, 24])
def test_the_screen_walks_no_coxeter_orbit(monkeypatch, cap):
    # the 24-step screen took 1,978 Coxeter steps at cap 8 and 8,256 at cap 24
    q = wild_sample()
    q.context.clear()
    walks = _count_orbit_walks(monkeypatch)
    assert len(_screened_roots(q, cap)) == {8: 39, 24: 168}[cap]
    assert walks == []


def test_the_search_walks_no_coxeter_orbit(monkeypatch):
    # the forms already decide that the members are regular, so no orbit of
    # a witness member is walked either
    q = wild_sample()
    q.context.clear()
    walks = _count_orbit_walks(monkeypatch)
    witness, report = regular_css_search(q, 8)
    assert witness is not None
    assert walks == []
    assert "members certified regular by the exact Perron forms" in report.flags


@pytest.mark.parametrize("cap", [8, 24])
def test_every_witness_member_is_regular_without_a_translate(monkeypatch, cap):
    from stratsys import artheory

    q = wild_sample()
    witness, _ = regular_css_search(q, cap)
    members = [materialize(m) for m in witness.modules]
    calls = []
    for name in ("tau", "tau_inv"):
        monkeypatch.setattr(artheory, name, lambda m, name=name: calls.append(name))
    assert [ar_position(m) for m in members] == [ArPosition("Regular")] * q.n
    assert calls == []


@pytest.mark.parametrize("name", WILD)
def test_coxeter_position_agrees_with_a_24_step_walk(name):
    # every <d, d> = 1 vector in [0, 4]^n whose orbit ends within 24 steps on
    # one side gets that side, the vertex it ends on and its length
    q = WILD[name]()
    ctx, phi = q.context, q.context.coxeter
    ended = 0
    for d in itertools.product(range(5), repeat=q.n):
        if not any(d) or euler_form(q, d, d) != 1:
            continue
        walks = [(walk, kind, vertex) for walk, kind, vertex in (
            (ending_walk(phi.apply, d, 24), "Preprojective", ctx.proj_vertex),
            (ending_walk(phi.apply_inverse, d, 24), "Preinjective", ctx.inj_vertex))
            if walk is not None]
        if walks:
            walk, kind, vertex = min(walks, key=lambda w: len(w[0]))
            position = ArPosition(kind, vertex[walk[-1]], len(walk) - 1)
            assert coxeter_position(q, d) == (position, tuple(walk)), d
            ended += 1
    assert ended == {"wild-sample": 8, "K3": 4, "doubled-triangle": 6,
                     "six-vertex-star": 29}[name]


def _descends_to_a_simple_root(q, dims) -> bool:
    """Reflection descent at the last vertex with (d, e_i) > 0, a test
    oracle for ``classifier._is_real_root``, which reflects at the first: a
    real root descends to a simple root in any order."""
    sym, d = _symmetrized_form(q), list(dims)
    while sum(d) > 1:
        i = max(i for i, row in enumerate(sym) if sum(map(mul, row, d)) > 0)
        d[i] -= sum(map(mul, sym[i], d))
        if d[i] < 0:
            return False
    return True


def _tripled_triangle():
    """The triangle 2 -> 1 -> 0 with the arrow 2 -> 0 tripled."""
    return Quiver.make(range(3), [(2, 0, "a"), (2, 0, "b"), (2, 0, "c"), (1, 0, "d"),
                                  (2, 1, "e")])


def _four_vertices():
    return Quiver.make(range(4), [(2, 3, "a"), (0, 1, "b"), (0, 3, "c"), (1, 3, "d"),
                                  (1, 3, "e")])


def _four_vertices_with_a_witness():
    return Quiver.make(range(4), [(2, 3, "a"), (0, 1, "b"), (2, 1, "c"), (2, 1, "d"),
                                  (0, 3, "e"), (0, 2, "f")])


@pytest.mark.parametrize("quiver, cap, left_out", [
    (_tripled_triangle, 8, [(2, 5, 2), (2, 6, 3), (3, 6, 2)]),
    (_tripled_triangle, 5, [(2, 5, 2)]),
    (_four_vertices, 4, [(4, 1, 2, 4)]),
    (_four_vertices_with_a_witness, 3, []),
], ids=["three-vertex-cap-8", "three-vertex-cap-5", "four-vertex", "four-vertex-equal"])
def test_the_pool_is_the_walk_pool_less_its_non_roots(quiver, cap, left_out):
    # the 24-step walk also kept vectors with <d, d> = 1 that are no root; the
    # exact screen leaves exactly those out and keeps nothing the walk dropped
    q = quiver()
    walked = box_screened_roots(q, cap)
    assert [d for d in walked if not _descends_to_a_simple_root(q, d)] == left_out
    assert _screened_roots(q, cap) == [d for d in walked if d not in left_out]


def test_the_search_no_longer_asks_about_a_non_root():
    # the walk's pool held (2, 5, 2) too: 8 checked, and a third flag dropping it
    witness, report = regular_css_search(_tripled_triangle(), 5)
    assert witness is None and report.checked == 7
    assert report.flags == [f"dropped {d}: the braid walk did not reach it within its bounds"
                            for d in ((1, 4, 3), (3, 4, 1))]
