import hashlib
import json
import random

import pytest

from conftest import (coboundary_rows, hom_dim_via_presentation, is_exceptional,
                      is_morphism, one_loop_quiver, random_representation, wild_sample)
from stratsys.io_json import rep_to_json
from stratsys.linalg import RationalMatrix, format_rational, rank
from stratsys.quiver import canonical_apq, euler_form, kronecker
from stratsys.reps import (_coboundary, direct_sum, dual_representation, ext1_dim,
                           ext1_dim_direct, hom_dim,
                           hom_space, injective, is_brick, is_sincere,
                           make_rep, minimal_presentation, nonsplit_extension,
                           projective, simple, sub_representation, supp)


def test_named_module_dims_kronecker(kron2):
    assert projective(kron2, 1).dims == (1, 0)
    assert projective(kron2, 2).dims == (2, 1)
    assert injective(kron2, 2).dims == (0, 1)
    assert injective(kron2, 2).dims == simple(kron2, 2).dims
    assert injective(kron2, 1).dims == (1, 2)


def test_named_module_dims_apq(apq23):
    assert projective(apq23, 0).dims == (1, 0, 0, 0, 0)
    assert projective(apq23, 4).dims == (2, 1, 1, 1, 1)
    assert injective(apq23, 4).dims == (0, 0, 0, 0, 1)


def test_unknown_vertex_raises(kron2):
    with pytest.raises(KeyError):
        simple(kron2, 7)


def test_hom_projectives_kronecker():
    for m in (2, 3):
        q = kronecker(m)
        assert hom_dim(projective(q, 1), projective(q, 2)) == m
        assert hom_dim(projective(q, 2), projective(q, 1)) == 0


def test_endomorphisms_of_lambda_brick(apq23):
    from stratsys.apq import apq_algebra, tube_lambda

    mouth = apq_algebra(2, 3).simple_regular(tube_lambda(1), 1)
    assert hom_dim(mouth, mouth) == 1
    assert ext1_dim(mouth, mouth) == 1


def test_ext_examples(kron2):
    p1 = projective(kron2, 1)
    p2 = projective(kron2, 2)
    i2 = injective(kron2, 2)
    assert ext1_dim(i2, p1) == 2
    assert ext1_dim_direct(i2, p1) == 2
    assert ext1_dim(p2, p1) == 0
    assert ext1_dim_direct(p2, p1) == 0


def test_regular_brick_has_self_extension(kron2):
    r = make_rep(kron2, (1, 1), {"a1": [[1]], "a2": [[1]]})
    assert is_brick(r)
    assert not is_exceptional(r)
    assert ext1_dim(r, r) == 1
    assert ext1_dim_direct(r, r) == 1


def test_supp_and_sincere(apq23):
    from stratsys.apq import TUBE_INFTY, TUBE_ZERO, apq_algebra, tube_lambda

    alg = apq_algebra(2, 3)
    assert supp(alg.simple_regular(TUBE_INFTY, 2)) == {0, 2, 3, 4}
    assert supp(simple(apq23, 3)) == {3}
    assert is_sincere(alg.simple_regular(tube_lambda(1), 1))
    assert supp(alg.simple_regular(TUBE_ZERO, 3)) == {0, 1, 4}


def test_projectives_exceptional(apq23):
    for v in apq23.vertices:
        assert is_exceptional(projective(apq23, v))


def test_exceptional_tube_mouth():
    from stratsys.apq import TUBE_ZERO, apq_algebra

    mouth = apq_algebra(2, 3).simple_regular(TUBE_ZERO, 3)
    assert mouth.dims == (1, 1, 0, 0, 1)
    assert is_exceptional(mouth)


def test_hom_space_basis_satisfies_intertwiner(kron2, apq23, rng):
    for q in (kron2, apq23):
        for _ in range(8):
            x = random_representation(q, rng)
            y = random_representation(q, rng)
            space = hom_space(x, y)
            assert space.dim == hom_dim(x, y)
            for mats in space.basis:
                assert is_morphism(x, y, mats)


COBOUNDARY_QUIVERS = {
    "K3": lambda: kronecker(3),
    "apq23": lambda: canonical_apq(2, 3),
    "apq34": lambda: canonical_apq(3, 4),
    "wild-sample": wild_sample,
    "one-loop": one_loop_quiver,
}


@pytest.mark.parametrize("name", sorted(COBOUNDARY_QUIVERS))
def test_the_coboundary_equals_its_entrywise_rows(name):
    q = COBOUNDARY_QUIVERS[name]()
    rng = random.Random(3401)
    for _ in range(16):
        x, y = random_representation(q, rng), random_representation(q, rng)
        for pair in ((x, y), (x, x)):
            rows, total = _coboundary(*pair)
            want_rows, want_total = coboundary_rows(*pair)
            assert total == want_total
            # the same rows in the same order, each with its keys in the same order
            assert [list(row.items()) for row in rows] == [list(row.items())
                                                           for row in want_rows]


def test_the_loop_terms_of_a_coboundary_row_cancel():
    q = one_loop_quiver()
    m = make_rep(q, (1, 1), {"l": [[2]], "a": [[1]]})
    n = make_rep(q, (1, 1), {"l": [[3]], "a": [[1]]})
    # along the loop f_1 m_l - m_l f_1 = 0, so the row is empty
    assert _coboundary(m, m) == ([{}, {1: 1, 0: -1}], 2)
    assert _coboundary(m, n) == ([{0: -1}, {1: 1, 0: -1}], 2)
    assert coboundary_rows(m, n) == _coboundary(m, n)


def test_sub_representation_rejects_a_subspace_not_closed(kron2):
    p2 = projective(kron2, 2)  # dims (2, 1): the arrows send e_2 to e_a1 and e_a2
    # zero maps at every vertex: the kernel is all of p2
    whole, _ = sub_representation([p2], [RationalMatrix.zero(1, 2), RationalMatrix.zero(1, 1)])
    assert whole == p2
    # no morphism: the kernels span(e_a1) at 1 and everything at 2 are not
    # closed, because the arrow a2 sends e_2 to e_a2
    with pytest.raises(ValueError, match="not closed"):
        sub_representation([p2], [RationalMatrix.from_rows([[0, 1]]), RationalMatrix.zero(1, 1)])


def test_sub_representation_rejects_a_non_morphism_out_of_injectives(kron2):
    # the summands of the Nakayama step of tau: I_1 + I_1, dims (2, 4); the
    # arrow a1 sends the a1 path of each copy at 2 to that copy's vector at 1
    i1 = injective(kron2, 1)
    at_2 = RationalMatrix.zero(1, 4)  # the kernel at 2 is everything
    # at 1, the kernel span(e_1 + e_2) holds no image of a single copy
    with pytest.raises(ValueError, match="not closed"):
        sub_representation([i1, i1], [RationalMatrix.from_rows([[1, -1]]), at_2])
    # at 1, the kernel is 0
    with pytest.raises(ValueError, match="not closed"):
        sub_representation([i1, injective(kron2, 2)],
                           [RationalMatrix.from_rows([[1]]), RationalMatrix.zero(1, 3)])
    # a morphism: the fold I_1 + I_1 -> I_1, whose kernel is a copy of I_1
    sub, _ = sub_representation([i1, i1], [RationalMatrix.from_rows([[1, 1]]),
                                           RationalMatrix.from_rows([[1, 0, 1, 0],
                                                                     [0, 1, 0, 1]])])
    assert sub.dims == (1, 2)


def test_sub_representation_rejects_a_non_morphism_out_of_other_summands(kron2):
    # the summands of a mutation: a module that is no P_v or I_v of the
    # context, k^2 -> k^2 by the identity along a1 and 0 along a2
    x = make_rep(kron2, (2, 2), {"a1": [[1, 0], [0, 1]]})
    at_2 = RationalMatrix.zero(1, 2)  # the kernel at 2 is everything
    # at 1, the kernel span(e_1 + e_2) does not hold the image e_1 of e_1
    with pytest.raises(ValueError, match="not closed"):
        sub_representation([x], [RationalMatrix.from_rows([[1, -1]]), at_2])
    with pytest.raises(ValueError, match="not closed"):
        sub_representation([x, x], [RationalMatrix.from_rows([[1, 1, 0, 0]]),
                                    RationalMatrix.zero(1, 4)])
    # the same map at both vertices is a morphism
    same = RationalMatrix.from_rows([[1, -1]])
    sub, _ = sub_representation([x], [same, same])
    assert sub.dims == (1, 1)


def test_kernel_inclusions_commute_with_the_arrows(apq23, rng):
    nonzero = 0
    for _ in range(12):
        x = random_representation(apq23, rng)
        y = random_representation(apq23, rng)
        for mats in hom_space(x, y).basis:
            sub, incl = sub_representation([x], mats)
            for k, v in enumerate(apq23.vertices):
                assert incl[v].cols == sub.dims[k] == x.dims[k] - rank(mats[k])
                assert not any(map(any, mats[k].mul(incl[v]).nums))
            for a, sub_map, x_map in zip(apq23.arrows, sub.maps, x.maps):
                assert incl[a.tgt].mul(sub_map) == x_map.mul(incl[a.src])
                nonzero += any(map(any, sub_map.nums))
    assert nonzero > 0


def test_kernels_read_their_coordinates_without_solving(monkeypatch, kron3, apq23, rng):
    from stratsys import linalg
    from stratsys.artheory import auslander_check

    def no_solve(*args):
        raise AssertionError("linalg.solve called")

    monkeypatch.setattr(linalg, "solve", no_solve)
    for q in (kron3, apq23):
        for _ in range(6):
            x, y = random_representation(q, rng), random_representation(q, rng)
            # tau(x), tau_inv(y) and the minimal presentations under them
            assert auslander_check(x, y).passed
            assert ext1_dim_direct(x, y) == ext1_dim(x, y)


def test_yoneda_projective(kron2, apq23, rng):
    for q in (kron2, apq23):
        for _ in range(6):
            m = random_representation(q, rng)
            for v in q.vertices:
                assert hom_dim(projective(q, v), m) == m.dim_at(v)
                assert hom_dim(m, injective(q, v)) == m.dim_at(v)


def test_oracle_agreement_random(kron2, kron3, apq23, rng):
    for q in (kron2, kron3, apq23):
        for _ in range(25):
            x = random_representation(q, rng)
            y = random_representation(q, rng)
            hom = hom_dim(x, y)
            assert hom - ext1_dim(x, y) == euler_form(q, x.dims, y.dims)
            assert ext1_dim(x, y) == ext1_dim_direct(x, y)
            assert hom == hom_dim_via_presentation(x, y)


def test_direct_sum_additive(kron2, rng):
    x = random_representation(kron2, rng)
    y = random_representation(kron2, rng)
    z = direct_sum([x, y])
    assert z.dims == tuple(a + b for a, b in zip(x.dims, y.dims))
    w = random_representation(kron2, rng)
    assert hom_dim(z, w) == hom_dim(x, w) + hom_dim(y, w)
    assert ext1_dim(w, z) == ext1_dim(w, x) + ext1_dim(w, y)


def test_dual_representation_swaps_hom(kron2, rng):
    x = random_representation(kron2, rng)
    y = random_representation(kron2, rng)
    assert hom_dim(x, y) == hom_dim(dual_representation(y), dual_representation(x))


def test_minimal_presentation_euler(kron2, apq23, rng):
    # dim P0 - dim P1 = dim M, and the cover slots match the top
    for q in (kron2, apq23):
        for _ in range(6):
            m = random_representation(q, rng)
            pres = minimal_presentation(m)
            total0 = [0] * q.n
            for v in pres.slots0:
                for k, d in enumerate(q.context.proj_dims[q.index(v)]):
                    total0[k] += d
            total1 = [0] * q.n
            for v in pres.slots1:
                for k, d in enumerate(q.context.proj_dims[q.index(v)]):
                    total1[k] += d
            assert tuple(a - b for a, b in zip(total0, total1)) == m.dims


def test_composition_factor_multiplicities_from_dims(apq23):
    # over an acyclic quiver the vertex simples are all the simples
    p4 = projective(apq23, 4)
    assert p4.dims == (2, 1, 1, 1, 1)
    for v, mult in zip(apq23.vertices, p4.dims):
        assert hom_dim(projective(apq23, v), p4) == mult


def test_nonsplit_extension_kronecker(kron2):
    e = nonsplit_extension(simple(kron2, 2), simple(kron2, 1))
    assert e.dims == (1, 1)
    assert is_brick(e)
    with pytest.raises(ValueError):
        nonsplit_extension(simple(kron2, 1), simple(kron2, 2))


# sha256 of json.dumps(rep_to_json(E), sort_keys=True) for the middle terms of
# the first five seeded pairs (top, sub) with Ext^1(top, sub) > 0
NONSPLIT_DIGESTS = [
    "6c5ebbb1cfa5b0b642a2b3ada16bf9d68bcaf2b5fe448fa02f32260eaa4a35b2",
    "7dfefe06584bd49e1e655dcd606f7614265528b05f716fc8fbf59567dec4c98f",
    "74db90ea68e474f8e96cfc6952f330f46766beb97bdcc153e2e2a07ceac6b61b",
    "0c17cc1259ed1062bbd69dd8d1beb0c38edfd5a346675cf1b1d522a3def545f5",
    "97951e1c124135b770b310c5988885ef2aff74c71ced194f286ede7d67dbe5b9",
]


def test_nonsplit_extensions_are_pinned(apq23, rng):
    digests = []
    while len(digests) < len(NONSPLIT_DIGESTS):
        top = random_representation(apq23, rng)
        sub = random_representation(apq23, rng)
        if ext1_dim(top, sub) > 0:
            e = nonsplit_extension(top, sub)
            assert e.dims == tuple(a + b for a, b in zip(sub.dims, top.dims))
            payload = json.dumps(rep_to_json(e), sort_keys=True)
            digests.append(hashlib.sha256(payload.encode("utf-8")).hexdigest())
    assert digests == NONSPLIT_DIGESTS


# sha256 of the JSON list of hom_space(x, y) bases, each basis element as its
# per-vertex matrices of "p/q" strings, over twelve seeded pairs per quiver
HOM_SPACE_DIGESTS = {
    "apq23": "10861acb047918d5e4478d5235633169439680a7a1d238ce53b5ddf0dc4fd90d",
    "kron2": "51cd71eadd86527be42d8d0dcbe7c5066213b8b06a3fc3d1ac6a03bfdd7a8ee5",
    "wild-sample": "7fa73fb2643a53f42abe2587ad5bdd71b83c88657b8b80645a0cf759fdd5cce4",
}


@pytest.mark.parametrize("name", sorted(HOM_SPACE_DIGESTS))
def test_hom_space_bases_are_pinned(name):
    q = {"apq23": lambda: canonical_apq(2, 3), "kron2": lambda: kronecker(2),
         "wild-sample": wild_sample}[name]()
    rng = random.Random(10)
    rows = []
    for _ in range(12):
        x = random_representation(q, rng)
        y = random_representation(q, rng)
        space = hom_space(x, y)
        assert space.dim == hom_dim(x, y)
        assert all(is_morphism(x, y, f) for f in space.basis)
        rows.append([[[[format_rational(v) for v in row] for row in mat.entries] for mat in f]
                     for f in space.basis])
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    assert digest == HOM_SPACE_DIGESTS[name]


# sha256 of the JSON list of [dims, slots0, slots1, iota] of minimal_presentation
# for eight seeded random modules per quiver; iota as sorted [j, i, [[path,
# coefficient], ...]] entries
PRESENTATION_DIGESTS = {
    "apq23": "6ae77d586c9a490a05fadf6c70fc50434d65df12c3c1ff42d237a4e92ee31fe4",
    "kron2": "cf6fc1f8d094afe1024b5cf2be6ff5717414a6ed091b348f154c5879e65f9f39",
}


@pytest.mark.parametrize("name", sorted(PRESENTATION_DIGESTS))
def test_minimal_presentations_are_pinned(request, rng, name):
    q = request.getfixturevalue(name)
    rows = []
    for _ in range(8):
        m = random_representation(q, rng)
        pres = minimal_presentation(m)
        iota = sorted([j, i, [[list(path), format_rational(c)] for path, c in terms]]
                      for (j, i), terms in pres.iota.items())
        rows.append([list(m.dims), list(pres.slots0), list(pres.slots1), iota])
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    assert digest == PRESENTATION_DIGESTS[name]
