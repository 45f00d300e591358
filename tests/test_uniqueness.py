"""Oracle and the two uniqueness verifiers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipm import (Graph, Matching, enumerate_pms, is_unique_pm, kotzig_peel,
                   pmincf, uniqueness, verify_pm)
from unipm.uniqueness import _canonical_cycle

from conftest import (C4_EDGES, FLOWER_EDGES, K4_EDGES, P4_EDGES, PAW_EDGES,
                      g_of, mid_chorded_chain, random_connected_edge_set)


# ----------------------------------------------------------------- oracle

def test_enumerate_k2():
    assert enumerate_pms(g_of(2, [(0, 1)]), 5) == [Matching([(0, 1)])]


def test_enumerate_c4():
    pms = enumerate_pms(g_of(4, C4_EDGES), 5)
    assert set(pms) == {Matching([(0, 1), (2, 3)]), Matching([(1, 2), (0, 3)])}


def test_enumerate_paw(paw):
    assert enumerate_pms(paw, 5) == [Matching([(0, 3), (1, 2)])]


def test_enumerate_cap_and_odd():
    assert len(enumerate_pms(g_of(4, K4_EDGES), 2)) == 2
    assert len(enumerate_pms(g_of(4, K4_EDGES), 10)) == 3
    assert enumerate_pms(g_of(3, [(0, 1), (1, 2)]), 2) == []
    assert enumerate_pms(Graph(0), 2) == [Matching([])]
    with pytest.raises(ValueError):
        enumerate_pms(Graph(2), 0)


def test_enumerate_deterministic():
    g = g_of(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    assert enumerate_pms(g, 8) == enumerate_pms(g, 8)


# ---------------------------------------------------------------- verify

def test_verify_pm_cases(paw):
    assert verify_pm(g_of(2, [(0, 1)]), Matching([(0, 1)]))
    assert not verify_pm(g_of(4, P4_EDGES), Matching([(0, 1)]))
    assert not verify_pm(g_of(4, C4_EDGES), Matching([(0, 2), (1, 3)]))
    assert verify_pm(paw, Matching([(0, 3), (1, 2)]))
    assert verify_pm(Graph(0), Matching([]))


def test_verify_pm_respects_removal(paw):
    paw.remove_vertex(3)
    assert not verify_pm(paw, Matching([(0, 3), (1, 2)]))


# ------------------------------------------------------------ is_unique_pm

def test_unique_c4_witness():
    g = g_of(4, C4_EDGES)
    w = is_unique_pm(g, Matching([(0, 1), (2, 3)]))
    assert w is not None
    assert w.cycle[0] == w.cycle[-1]
    assert len(w.cycle) == 5


def test_unique_p4_none():
    assert is_unique_pm(g_of(4, P4_EDGES), Matching([(0, 1), (2, 3)])) is None


def test_unique_k4_witness():
    w = is_unique_pm(g_of(4, K4_EDGES), Matching([(0, 1), (2, 3)]))
    assert w is not None


def test_unique_requires_pm():
    with pytest.raises(ValueError):
        is_unique_pm(g_of(4, P4_EDGES), Matching([(0, 1)]))


def test_unique_flower_regression(flower):
    """Two triangles tied by a matched edge: the naive alternating-cycle
    digraph is cyclic even though the matching is unique.  Exercises the
    exact fallback."""
    (m,) = enumerate_pms(flower, 2)
    assert is_unique_pm(flower, m) is None
    assert kotzig_peel(flower, m)


def test_unique_flower_with_extra_cycle(flower):
    # adding the edge that closes an alternating cycle flips the verdict
    flower.add_edge(2, 4)
    pms = enumerate_pms(flower, 4)
    assert len(pms) > 1
    w = is_unique_pm(flower, pms[0])
    assert w is not None
    m2 = w.swapped(pms[0])
    assert verify_pm(flower, m2) and m2 != pms[0]


def _mid_chorded_chain():
    g = mid_chorded_chain()
    m = pmincf(g)
    assert m == Matching([(2 * i, 2 * i + 1) for i in range(32)])
    return g, m


def _no_fallback(monkeypatch):
    def boom(*args):
        raise AssertionError("reached the peel or the per-pair search")
    monkeypatch.setattr(uniqueness, "find_bridges", boom)
    monkeypatch.setattr(uniqueness, "_augmenting_path", boom)


def test_dfs_finds_mid_chorded_chain_witness(monkeypatch):
    g, m = _mid_chorded_chain()
    assert not kotzig_peel(g, m)
    _no_fallback(monkeypatch)
    w = is_unique_pm(g, m)
    assert w is not None and w.cycle == (30, 31, 33, 32, 30)


def test_dfs_skips_degenerate_back_arcs(monkeypatch):
    """The DFS from 0 runs 0 -> 3 -> 1 -> 7.  Its first back arc 7 -> 0
    closes a cycle through the pair 0-1; then 7 -> 4 -> 6 pushes the
    pair 6-7 and 6 -> 0 closes a second degenerate cycle.  After 4 and
    6 are popped, 7 -> 5 -> 1 closes the clean cycle 1, 7, 5: the lower
    position of the popped pair 6-7 must no longer count against it."""
    g = g_of(8, [(1, 6), (6, 7), (3, 7), (0, 5), (2, 7), (0, 3), (3, 5),
                 (2, 4), (0, 1), (4, 7), (1, 7)])
    m = Matching([(0, 1), (2, 4), (3, 5), (6, 7)])
    _no_fallback(monkeypatch)
    w = is_unique_pm(g, m)
    assert w is not None and w.cycle == (0, 1, 6, 7, 3, 5, 0)
    _assert_witness(g, m, w)


def test_unique_fallback_stalled_search_raises(monkeypatch):
    # every back arc of this graph's DFS closes a degenerate cycle and the
    # peel stalls at once, so the per-pair search must find the witness;
    # a search that finds nothing is a bug, not "unique"
    g = g_of(6, [(0, 3), (0, 2), (3, 4), (4, 5), (1, 5), (0, 1), (2, 3), (1, 4)])
    m = Matching([(0, 2), (1, 5), (3, 4)])
    assert is_unique_pm(g, m).cycle == (0, 2, 3, 4, 5, 1, 0)
    monkeypatch.setattr(uniqueness, "_augmenting_path", lambda *args: None)
    with pytest.raises(RuntimeError, match="peel stalled"):
        is_unique_pm(g, m)


def test_canonical_cycle_rejects_non_alternating():
    # 0's partner is 2, which is not next to 0 on the cycle either way round
    with pytest.raises(RuntimeError):
        _canonical_cycle([0, 1, 2, 3], {0: 2, 2: 0, 1: 3, 3: 1})


# ------------------------------------------------------------- kotzig_peel

def test_kotzig_examples(paw):
    assert kotzig_peel(g_of(4, P4_EDGES), Matching([(0, 1), (2, 3)]))
    assert not kotzig_peel(g_of(4, C4_EDGES), Matching([(0, 1), (2, 3)]))
    assert kotzig_peel(paw, Matching([(0, 3), (1, 2)]))
    with pytest.raises(ValueError):
        kotzig_peel(g_of(4, C4_EDGES), Matching([(0, 2), (1, 3)]))


def test_kotzig_does_not_mutate(paw):
    kotzig_peel(paw, Matching([(0, 3), (1, 2)]))
    assert paw.live_count == 4 and paw.edge_count == 4


# ----------------------------------------------------------- properties

@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_verifier_agreement_random(n, seed):
    if n % 2:
        n += 1
    g = Graph.from_edges(n, random_connected_edge_set(n, random.Random(seed)))
    pms = enumerate_pms(g, 2)
    if not pms:
        return
    m = pms[0]
    unique = len(pms) == 1
    assert (is_unique_pm(g, m) is None) == unique
    assert kotzig_peel(g, m) == unique


def _assert_witness(g, m, w):
    """w is a simple cycle of live edges alternating matched/unmatched,
    starting matched, and swapping it gives a second perfect matching."""
    verts = w.cycle
    assert verts[0] == verts[-1]
    assert len(set(verts[:-1])) == len(verts) - 1
    for i in range(len(verts) - 1):
        a, b = verts[i], verts[i + 1]
        assert g.has_edge(a, b)
        assert ((a, b) in m) == (i % 2 == 0)
    m2 = w.swapped(m)
    assert verify_pm(g, m2) and m2 != m


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 8), st.integers(0, 10**6))
def test_witness_swaps_to_second_pm(n, seed):
    if n % 2:
        n += 1
    g = Graph.from_edges(n, random_connected_edge_set(n, random.Random(seed)))
    pms = enumerate_pms(g, 2)
    if len(pms) < 2:
        return
    m = pms[0]
    w = is_unique_pm(g, m)
    assert w is not None
    _assert_witness(g, m, w)


def _add_random_edges(g, k, rng):
    n = g.n_total
    added = 0
    while added < k:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
            added += 1


def _planted(n, rng):
    """Random graph on n + 2 vertices with a planted perfect matching;
    about half the time one matched pair is then lazily removed."""
    order = list(range(n + 2))
    rng.shuffle(order)
    pairs = [(order[i], order[i + 1]) for i in range(0, n + 2, 2)]
    g = Graph.from_edges(n + 2, pairs)
    _add_random_edges(g, rng.randint(0, 2 * n), rng)
    if rng.random() < 0.5:
        u, v = pairs.pop()
        g.remove_vertex(u)
        g.remove_vertex(v)
    return g, Matching(pairs)


def test_verifiers_agree_beyond_oracle_reach():
    """Cross-check the verifier and the reference peel on graphs too large for
    the oracle: class members (all unique, rich in the odd structures
    that force the exact fallback), members with 1-3 random chords
    (mostly non-unique, often no longer claw-free -- neither verifier
    cares) and random graphs with a planted perfect matching, some with
    a lazily removed matched pair."""
    from unipm import random_gclass

    rng = random.Random(0xBEEF)
    cases = []
    for _ in range(300):
        g, _ = random_gclass(rng.randint(3, 120), op2_bias=rng.random(),
                             seed=rng.randrange(10**9))
        m = pmincf(g)
        cases.append((g, m))
        h = g.copy()
        _add_random_edges(h, rng.randint(1, 3), rng)
        cases.append((h, m))
    for _ in range(1000):
        cases.append(_planted(2 * rng.randint(2, 60), rng))
    witnesses = 0
    for g, m in cases:
        w = is_unique_pm(g, m)
        assert (w is None) == kotzig_peel(g, m)
        if w is not None:
            witnesses += 1
            _assert_witness(g, m, w)
    assert witnesses > len(cases) // 3


def _alternating_cycle_decomposition(m1: Matching, m2: Matching):
    """Components of the symmetric difference; each must be an even cycle
    alternating between the two matchings."""
    diff = set(m1.pairs) ^ set(m2.pairs)
    adj = {}
    for u, v in diff:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    assert all(len(vs) == 2 for vs in adj.values())
    seen = set()
    cycles = 0
    for start in adj:
        if start in seen:
            continue
        cycles += 1
        prev, cur = None, start
        length = 0
        while True:
            seen.add(cur)
            nxt = [w for w in adj[cur] if w != prev]
            prev, cur = cur, nxt[0]
            length += 1
            if cur == start:
                break
        assert length % 2 == 0
    return cycles


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 8), st.integers(0, 10**6))
def test_symmetric_difference_decomposes(n, seed):
    if n % 2:
        n += 1
    g = Graph.from_edges(n, random_connected_edge_set(n, random.Random(seed)))
    pms = enumerate_pms(g, 4)
    for i in range(len(pms)):
        for j in range(i + 1, len(pms)):
            assert _alternating_cycle_decomposition(pms[i], pms[j]) >= 1
