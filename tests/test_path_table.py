"""The structural route does each piece of work once, and its shortcuts
equal the constructions they replace.

On seeded random modules over K_3, A~_{2,3}, A~_{3,4}, A~_{2,5} and the wild
sample: nu(iota) at x read off the path table equals the transpose of the
presentation route's matrix at P_x; a kernel taken summand by summand
equals the kernel out of the built direct sum; a module is presented once,
and presenting grows no memo of the quiver context."""

import random

import pytest

from conftest import random_representation, wild_sample
from stratsys import reps
from stratsys.artheory import tau, tau_inv
from stratsys.linalg import RationalMatrix
from stratsys.quiver import canonical_apq, kronecker
from stratsys.reps import (direct_sum, ext1_dim_direct, hom_space, injective, make_rep,
                           minimal_presentation, nakayama_matrices, presentation_matrix,
                           projective, projective_cover_data, sub_representation)

QUIVERS = {
    "K3": lambda: kronecker(3),
    "apq23": lambda: canonical_apq(2, 3),
    "apq34": lambda: canonical_apq(3, 4),
    "apq25": lambda: canonical_apq(2, 5),
    "wild-sample": wild_sample,
}


def _modules(name: str, count: int = 8) -> list:
    q = QUIVERS[name]()
    rng = random.Random(2317)
    return [random_representation(q, rng) for _ in range(count)]


def _side_by_side(*blocks: RationalMatrix) -> RationalMatrix:
    return RationalMatrix.from_rows([sum(rows, ()) for rows in zip(*(b.entries for b in blocks))],
                                    cols=sum(b.cols for b in blocks))


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_hom_iota_to_a_projective_is_read_off_the_path_table(name):
    for m in _modules(name):
        q = m.quiver
        pres = minimal_presentation(m)
        mats = nakayama_matrices(pres)
        assert len(mats) == q.n
        for x, mat in zip(q.vertices, mats):
            assert mat == presentation_matrix(pres, projective(q, x)).transpose()


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_a_kernel_of_summands_equals_the_kernel_of_their_sum(name):
    mixed = 0
    modules = _modules(name)
    for m, x in zip(modules, modules[1:] + modules[:1]):
        q = m.quiver
        # the cover (+) P_v -> m: every summand a gather
        slots0, cover = projective_cover_data(m)
        cases = [([projective(q, v) for v in slots0], [cover[v] for v in q.vertices])]
        # the Nakayama step of tau: every summand an I_w
        pres = minimal_presentation(m)
        if pres.slots1:
            cases.append(([injective(q, w) for w in pres.slots1],
                          [presentation_matrix(pres, projective(q, v)).transpose()
                           for v in q.vertices]))
        # x (+) (+) P_v (+) x -> m by (f, cover, g): generic summands, with
        # 1/2 entries, between gathered ones
        basis = hom_space(x, m).basis
        f = basis[0] if basis else [RationalMatrix.zero(r, c) for r, c in zip(m.dims, x.dims)]
        g = basis[-1] if basis else f
        cases.append(([x] + cases[0][0] + [x],
                      [_side_by_side(f[k], cover[v], g[k]) for k, v in enumerate(q.vertices)]))
        mixed += any(mat.den > 1 for mat in x.maps)
        for parts, mats in cases:
            assert sub_representation(parts, mats) == sub_representation([direct_sum(parts)],
                                                                          mats)
    assert mixed


def test_summands_must_match_the_matrices():
    q = kronecker(3)
    p2 = projective(q, 2)
    with pytest.raises(ValueError, match="sum of the summands"):
        sub_representation([p2, p2], [RationalMatrix.zero(1, 3), RationalMatrix.zero(1, 1)])
    with pytest.raises(ValueError, match="different quivers"):
        sub_representation([p2, projective(kronecker(2), 2)],
                           [RationalMatrix.zero(1, 5), RationalMatrix.zero(1, 2)])


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_a_module_is_presented_once(name):
    for m in _modules(name, 4):
        pres = minimal_presentation(m)
        assert minimal_presentation(m) is pres
        # an equal module built apart is presented apart, and the kept
        # presentation is no part of equality or hashing
        twin = make_rep(m.quiver, m.dims, {a.label: mat.entries
                                          for a, mat in zip(m.quiver.arrows, m.maps)})
        assert twin == m and hash(twin) == hash(m)
        assert minimal_presentation(twin) == pres and minimal_presentation(twin) is not pres


def test_tau_reuses_the_presentation_of_the_ext_route(monkeypatch):
    calls = []
    cover = reps.projective_cover_data
    monkeypatch.setattr(reps, "projective_cover_data", lambda m: calls.append(m) or cover(m))
    for m in _modules("apq34"):
        y = projective(m.quiver, 0)
        ext1_dim_direct(m, y)
        tau(m)
        tau(m)
    assert len(calls) == 8


def test_presenting_grows_no_context_memo():
    quivers = [QUIVERS[name]() for name in sorted(QUIVERS)]
    rng = random.Random(200)

    def present(count):
        for i in range(count):
            m = random_representation(quivers[i % len(quivers)], rng)
            minimal_presentation(m)
            tau(m)
            tau_inv(m)

    # tau_inv works over the opposite quiver; build the named modules and
    # the derived tables of both orientations first
    contexts = [o.context for q in quivers for o in (q, q.context.opposite)]
    for ctx in contexts:
        for v in ctx.quiver.vertices:
            projective(ctx.quiver, v)
            injective(ctx.quiver, v)
    present(20)

    def sizes():
        return [(k, len(v)) for ctx in contexts for k, v in vars(ctx).items()
                if isinstance(v, dict)]

    before = sizes()
    present(200)
    assert sizes() == before
