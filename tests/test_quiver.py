import pytest

from conftest import wild_sample
from stratsys.quiver import (Quiver, canonical_apq, classify_type, coxeter_transform,
                             defect, euler_form, kronecker, null_root, validate)


def test_validate_kronecker_passes():
    assert validate(kronecker(2)).passed


def test_validate_self_loop_fails_acyclic():
    q = Quiver.make([1], [(1, 1, "a")])
    report = validate(q)
    assert not report.passed
    assert report.violations[0].axiom == "acyclic"


def test_validate_disconnected_fails():
    q = Quiver.make([1, 2, 3, 4], [(2, 1, "a"), (4, 3, "b")])
    report = validate(q)
    assert not report.passed
    assert report.violations[0].axiom == "connected"


def test_validate_duplicate_labels():
    q = Quiver.make([1, 2], [(2, 1, "a"), (2, 1, "a")])
    report = validate(q)
    assert not report.passed
    assert report.violations[0].axiom == "distinct-labels"


def test_euler_form_kronecker_values():
    q = kronecker(2)
    assert euler_form(q, (1, 0), (1, 0)) == 1
    assert euler_form(q, (0, 1), (1, 0)) == -2


def test_euler_form_null_root_isotropic():
    q = canonical_apq(2, 3)
    delta = (1, 1, 1, 1, 1)
    assert euler_form(q, delta, delta) == 0
    assert null_root(q) == delta


def test_euler_form_length_mismatch():
    with pytest.raises(ValueError):
        euler_form(kronecker(2), (1, 0, 0), (1, 0))


def test_coxeter_kronecker_values():
    phi = coxeter_transform(kronecker(2))
    assert phi.apply((1, 1)) == (1, 1)
    assert phi.apply((1, 2)) == (3, 4)
    assert phi.apply_inverse((1, 0)) == (3, 2)


def test_coxeter_defining_property_all_quivers():
    star = Quiver.make([0, 1, 2, 3], [(v, 0, f"a{v}") for v in (1, 2, 3)])
    for q in (kronecker(2), kronecker(3), canonical_apq(2, 3), canonical_apq(1, 2),
              wild_sample(), star):
        phi = coxeter_transform(q)
        identity = tuple(tuple(int(i == j) for j in range(q.n)) for i in range(q.n))
        assert tuple(tuple(sum(phi.matrix[i][k] * phi.inverse[k][j] for k in range(q.n))
                           for j in range(q.n)) for i in range(q.n)) == identity
        for v in q.vertices:
            p = q.context.proj_dims[q.index(v)]
            i = q.context.inj_dims[q.index(v)]
            assert phi.apply(p) == tuple(-x for x in i)
            assert phi.apply_inverse(i) == tuple(-x for x in p)


def test_coxeter_power_inverse_round_trip():
    phi = coxeter_transform(canonical_apq(2, 3))
    v = w = (1, 2, 3, 4, 5)
    for _ in range(4):
        w = phi.apply(w)
    assert w != v
    for _ in range(4):
        w = phi.apply_inverse(w)
    assert w == v


def test_classify_examples():
    assert classify_type(kronecker(2)).tag == "Euclidean"
    assert classify_type(kronecker(3)).tag == "Wild"
    assert classify_type(canonical_apq(2, 3)).tag == "Euclidean"
    assert classify_type(canonical_apq(1, 2)).tag == "Euclidean"
    # one loop has the Tits form of the Jordan quiver, which is singular
    # positive semidefinite, yet its path algebra is infinite-dimensional
    assert classify_type(Quiver.make([1], [(1, 1, "l")])).tag == "Wild"


def test_classify_catalogue():
    def path(n):
        return Quiver.make(range(n), [(i + 1, i, f"a{i}") for i in range(n - 1)])

    assert classify_type(path(1)).tag == "Dynkin"
    assert classify_type(path(5)).tag == "Dynkin"  # A_5

    def star(arms):
        arrows = []
        v = 1
        for arm in arms:
            prev = 0
            for _ in range(arm):
                arrows.append((v, prev, f"a{v}"))
                prev = v
                v += 1
        return Quiver.make(range(v), arrows)

    assert classify_type(star([1, 1, 2])).tag == "Dynkin"      # D_5
    assert classify_type(star([1, 2, 2])).tag == "Dynkin"      # E6
    assert classify_type(star([1, 2, 3])).tag == "Dynkin"      # E7
    assert classify_type(star([1, 2, 4])).tag == "Dynkin"      # E8
    assert classify_type(star([1, 2, 5])).tag == "Euclidean"   # E~8
    assert classify_type(star([2, 2, 2])).tag == "Euclidean"   # E~6
    assert classify_type(star([1, 3, 3])).tag == "Euclidean"   # E~7
    assert classify_type(star([1, 1, 1, 1])).tag == "Euclidean"  # D~4
    assert classify_type(star([1, 2, 6])).tag == "Wild"
    assert classify_type(star([2, 2, 3])).tag == "Wild"
    assert classify_type(star([1, 1, 1, 2])).tag == "Wild"
    # D~_5: central path 2-3 with both ends doubled
    dn = Quiver.make(range(6), [(0, 2, "a"), (1, 2, "b"), (3, 2, "x"),
                                (4, 3, "c"), (5, 3, "d")])
    assert classify_type(dn).tag == "Euclidean"
    # one twig lengthened: no longer in the catalogue
    long_twig = Quiver.make(range(7), [(0, 2, "a"), (1, 2, "b"), (3, 2, "x"),
                                       (4, 3, "c"), (5, 3, "d"), (6, 4, "e")])
    assert classify_type(long_twig).tag == "Wild"


def test_classify_orientation_independent():
    base = canonical_apq(2, 3)
    for k in range(len(base.arrows)):
        arrows = [(a.src, a.tgt, a.label) for a in base.arrows]
        src, tgt, label = arrows[k]
        arrows[k] = (tgt, src, label)
        flipped = Quiver.make(base.vertices, arrows)
        assert classify_type(flipped).tag == "Euclidean"


def _star_edges(arms):
    edges, v = [], 1
    for arm in arms:
        prev = 0
        for _ in range(arm):
            edges.append((prev, v))
            prev, v = v, v + 1
    return v, edges


def _d_tilde_edges(n):
    """D~_n on n + 1 vertices: a chain of n - 3 vertices, two leaves at each end."""
    chain = n - 3
    edges = [(k, k + 1) for k in range(chain - 1)]
    edges += [(0, chain), (0, chain + 1), (chain - 1, chain + 2), (chain - 1, chain + 3)]
    return n + 1, edges


EUCLIDEAN_GRAPHS = {
    **{f"A~{n - 1}": (n, [(k, (k + 1) % n) for k in range(n)]) for n in range(2, 9)},
    **{f"D~{n}": _d_tilde_edges(n) for n in range(4, 8)},
    "E~6": _star_edges([2, 2, 2]),
    "E~7": _star_edges([1, 3, 3]),
    "E~8": _star_edges([1, 2, 5]),
}


def _oriented(n, edges, flip):
    """Quiver on vertices 1..n; edge k runs backwards when flip(k)."""
    arrows = [((v, u) if flip(k) else (u, v)) + (f"e{k}",) for k, (u, v) in enumerate(edges)]
    return Quiver.make(range(1, n + 1), [(s + 1, t + 1, label) for s, t, label in arrows])


def _connected(q):
    seen, stack = {q.vertices[0]}, [q.vertices[0]]
    while stack:
        v = stack.pop()
        for a in q.arrows:
            for x, y in ((a.src, a.tgt), (a.tgt, a.src)):
                if x == v and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == q.n


@pytest.mark.parametrize("flip", [lambda k: k % 2, lambda k: k % 3 == 0],
                         ids=["alternating", "every-third"])
@pytest.mark.parametrize("name", sorted(EUCLIDEAN_GRAPHS))
def test_classify_around_each_euclidean_graph(name, flip):
    """Euclidean graphs are the minimal non-Dynkin ones and the maximal
    non-wild ones: every connected one-vertex deletion is Dynkin, and every
    added pendant vertex or extra arrow is wild."""
    n, edges = EUCLIDEAN_GRAPHS[name]
    q = _oriented(n, edges, flip)
    assert classify_type(q).tag == "Euclidean"
    arrows = [(a.src, a.tgt, a.label) for a in q.arrows]
    for v in q.vertices:
        sub = Quiver.make([w for w in q.vertices if w != v],
                          [a for a in arrows if v not in a[:2]])
        if _connected(sub):
            assert classify_type(sub).tag == "Dynkin", (name, v)
        pendant = Quiver.make(q.vertices + (n + 1,), arrows + [(n + 1, v, "new")])
        assert classify_type(pendant).tag == "Wild", (name, v)
        for w in q.vertices:
            if w != v:
                extra = Quiver.make(q.vertices, arrows + [(v, w, "new")])
                assert classify_type(extra).tag == "Wild", (name, v, w)


def test_kronecker_constructor():
    q = kronecker(2)
    assert q.vertices == (1, 2)
    assert len(q.arrows) == 2
    assert all(a.src == 2 and a.tgt == 1 for a in q.arrows)
    with pytest.raises(ValueError):
        kronecker(0)


def test_canonical_apq_shape():
    q = canonical_apq(2, 3)
    assert q.vertices == (0, 1, 2, 3, 4)
    assert len(q.arrows) == 5
    sinks = [v for v in q.vertices if not q.arrows_out(v)]
    sources = [v for v in q.vertices if not q.arrows_in(v)]
    assert sinks == [0] and sources == [4]
    with pytest.raises(ValueError):
        canonical_apq(3, 2)


def test_canonical_apq_1_1_is_kronecker_shape():
    q = canonical_apq(1, 1)
    assert q.n == 2 and len(q.arrows) == 2
    assert all(a.src == 1 and a.tgt == 0 for a in q.arrows)


def test_quiver_json_round_trip():
    q = canonical_apq(2, 3)
    assert Quiver.from_json(q.to_json()) == q


def test_defect_signs():
    q = canonical_apq(2, 3)
    assert defect(q, q.context.proj_dims[q.index(4)]) < 0
    assert defect(q, q.context.inj_dims[q.index(0)]) > 0
    assert defect(q, (1, 1, 1, 1, 1)) == 0
