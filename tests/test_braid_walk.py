"""The braid walk: wild exceptional modules built by mutation, and the pairs
of its sequences answered by the directing-pair formula."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratsys import modules
from stratsys.classifier import _braid_module, exceptional_of_dims, regular_css_search
from stratsys.modules import pair_hom_ext, ref_dims, ref_root
from stratsys.quiver import WALK_STATES, Quiver, euler_form, kronecker
from stratsys.reps import brick_iso, ext1_dim_direct, hom_dim, mutate

from conftest import is_exceptional, wild_sample


@pytest.mark.parametrize("dims", [(0, 5, 6), (0, 6, 5), (2, 3, 6), (4, 3, 6), (5, 6, 0),
                                  (6, 5, 0), (1, 8, 4), (15, 8, 4), (1, 18, 12)])
def test_the_walk_builds_every_module_the_generic_search_missed(dims):
    # fixed generic matrices give no module on these vectors, although each
    # is a real Schur root; the walk builds all of them
    wild = wild_sample()
    wild.context.clear()
    rep = exceptional_of_dims(wild, dims)
    assert wild.context.walk.reached(dims)
    assert rep.dims == dims and is_exceptional(rep)


def test_the_pairs_of_walked_sequences_agree_with_structure(monkeypatch):
    wild = wild_sample()
    ctx = wild.context
    ctx.clear()
    assert not ctx.walk.reached((2, 7, 2))  # walks every sequence within the bounds
    assert len(ctx.walk._seen) < WALK_STATES
    pairs = sorted(pair for pair in ctx.walk.pairs if max(*pair[0], *pair[1]) <= 10)
    assert len(pairs) == 181
    structural = [0]
    real = modules._structural_hom

    def counting(*args):
        structural[0] += 1
        return real(*args)

    monkeypatch.setattr(modules, "_structural_hom", counting)
    for u, v in pairs:
        for a, b in ((u, v), (v, u)):
            x, y = _braid_module(wild, a), _braid_module(wild, b)
            assert pair_hom_ext(ref_root(wild, a), ref_root(wild, b)) == (
                hom_dim(x, y), ext1_dim_direct(x, y)), (a, b)
    assert structural[0] == 0  # every pair was answered by the walk


@st.composite
def acyclic_quivers(draw):
    """A connected quiver on 2 to 4 vertices whose arrows all point to a
    smaller vertex, with at most two arrows between two vertices."""
    n = draw(st.integers(2, 4))
    arrows = []
    for t in range(1, n):
        for s in range(t + 1, n + 1):
            low = 1 if s == t + 1 else 0  # the path n -> ... -> 1 keeps it connected
            arrows += [(s, t, f"a{s}{t}{k}") for k in range(draw(st.integers(low, 2)))]
    return Quiver.make(range(1, n + 1), arrows)


@settings(max_examples=15, deadline=None)
@given(acyclic_quivers())
def test_walked_pairs_agree_with_structure_on_small_quivers(q):
    # Dynkin, Euclidean and wild quivers alike: the first sequences of the
    # walk, every module built on them exceptional, every pair of one
    # sequence answered as structure answers it
    q.context.clear()
    walk = q.context.walk
    walk._walk_until(lambda: len(walk._seen) >= 30)
    small = [pair for pair in walk.pairs if sum(pair[0]) + sum(pair[1]) <= 8]
    for dims in {d for pair in small for d in pair}:
        assert is_exceptional(_braid_module(q, dims))
    for u, v in small:
        for a, b in ((u, v), (v, u)):
            x, y = _braid_module(q, a), _braid_module(q, b)
            assert pair_hom_ext(ref_root(q, a), ref_root(q, b)) == (
                hom_dim(x, y), ext1_dim_direct(x, y)), (q, a, b)


def test_a_left_move_is_undone_by_a_right_move():
    # over K_3 the walk passes through the Hom and the Ext^1 case; for an
    # exceptional pair (E, F), (L_E F, E) is one again and R_E L_E F = F
    q = kronecker(3)
    q.context.clear()
    walk = q.context.walk
    assert walk.reached((3, 8)) and walk.reached((8, 3))
    signs = set()
    for dims, recipe in walk.recipes.items():
        if recipe is None:
            continue
        move, e, f = recipe
        signs.add(euler_form(q, e, f) > 0)
        x, y = _braid_module(q, e), _braid_module(q, f)
        if move == "L":
            assert brick_iso(mutate(_braid_module(q, dims), x, False), y)
        else:
            assert brick_iso(mutate(y, _braid_module(q, dims), True), x)
    assert signs == {False, True}


def test_the_walk_is_per_quiver_and_reset_by_clear():
    cyclic = Quiver.make([1, 2], [(1, 2, "a"), (2, 1, "b")])
    assert not cyclic.context.walk.reached((1, 0))
    q = kronecker(3)
    walk = q.context.walk
    assert walk.reached((1, 3))
    q.context.clear()
    assert q.context.walk is not walk and not q.context.walk.recipes


def test_threads_walk_as_one_walk_does():
    # four threads ask for different vectors at once; the walk is a
    # deterministic breadth-first prefix, so a lost update would show as a
    # difference from one thread asking for all of them
    wild = wild_sample()
    targets = [(1, 8, 4), (15, 8, 4), (0, 6, 5), (1, 18, 12)]

    def state(walk):
        return dict(walk.recipes), set(walk.pairs), set(walk._seen), list(walk._queue)

    wild.context.clear()
    assert all(wild.context.walk.reached(t) for t in targets)
    expected = state(wild.context.walk)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            wild.context.clear()
            walk, barrier, got = wild.context.walk, threading.Barrier(4), []

            def ask(target):
                barrier.wait(timeout=10)
                got.append(walk.reached(target))

            threads = [threading.Thread(target=ask, args=(t,)) for t in targets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert got == [True] * 4
            assert state(walk) == expected
    finally:
        sys.setswitchinterval(interval)


def test_the_walk_builds_every_member_on_a_six_vertex_star():
    # five arms into a centre: the breadth-first walk passes 2,000 sequences
    # before it reaches (2,1,1,0,0,1) and (2,1,0,1,1,0), and its budget
    # covers both, so no vector is dropped
    star = Quiver.make(range(6), [(i, 0, f"a{i}") for i in range(1, 6)])
    star.context.clear()
    start = time.perf_counter()
    witness, report = regular_css_search(star, 2)
    assert witness is not None and report.passed
    assert [ref_dims(m) for m in witness.modules] == [
        (1, 0, 0, 0, 1, 1), (1, 0, 0, 1, 0, 1), (1, 0, 0, 1, 1, 1),
        (2, 1, 1, 0, 0, 1), (1, 0, 1, 0, 0, 1), (1, 1, 0, 0, 0, 1)]
    assert not any(flag.startswith("dropped") for flag in report.flags)
    for member in witness.modules:
        assert is_exceptional(star.context.root_reps[member.dims])
    assert len(star.context.walk._seen) < WALK_STATES
    assert time.perf_counter() - start < 20
