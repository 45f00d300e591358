"""Oracle and the two uniqueness verifiers."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipm import (Graph, Matching, clique_chain, enumerate_pms, find_claw,
                   is_unique_pm, kotzig_peel, maximum_matching, pmincf,
                   random_gclass, uniqueness, verify_pm)
from unipm.forcing import _forced_pairs
from unipm.uniqueness import _canonical_cycle

from conftest import (C4_EDGES, FLOWER_EDGES, K4_EDGES, NEAR_TRIANGLE_EDGES,
                      P4_EDGES, PAW_EDGES, TWO_FANS_EDGES, fan_ladder, g_of,
                      iter_connected_edge_sets, mid_chorded_chain,
                      random_connected_edge_set)


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


def _boom(*args):
    raise AssertionError("reached a stage the test rules out")


def _no_fallback(monkeypatch):
    monkeypatch.setattr(uniqueness, "find_bridges", _boom)
    monkeypatch.setattr(uniqueness, "_augmenting_path", _boom)


def _peel_rounds(monkeypatch):
    """The live vertex count at each find_bridges call of the peel."""
    bridges = uniqueness.find_bridges
    live = []

    def counting_bridges(work):
        live.append(work.n_total - sum(work.removed))
        return bridges(work)

    monkeypatch.setattr(uniqueness, "find_bridges", counting_bridges)
    return live


def test_unique_flower_regression(flower, monkeypatch):
    """Two triangles tied by a matched edge: the alternating-cycle digraph
    is cyclic even though the matching is unique.  Its pendant triangles
    are forced pairs, so the forced-pair peel empties it before the
    bridge peel."""
    (m,) = enumerate_pms(flower, 2)
    assert kotzig_peel(flower, m)
    _no_fallback(monkeypatch)
    assert is_unique_pm(flower, m) is None


def test_elimination_empties_class_members(monkeypatch):
    """Every class member is unique and claw-free, so the forced-pair
    peel empties it: neither the DFS, the bridge peel nor the search
    runs."""
    rng = random.Random(0xE11)
    cases = [clique_chain(k)[0] for k in range(40)]
    for _ in range(300):
        cases.append(random_gclass(rng.randint(1, 120), op2_bias=rng.random(),
                                   seed=rng.randrange(10**9))[0])
    matchings = [pmincf(g) for g in cases]
    _no_fallback(monkeypatch)
    monkeypatch.setattr(uniqueness, "_clean_cycle", _boom)
    for g, m in zip(cases, matchings):
        assert is_unique_pm(g, m) is None


def test_forced_pairs_exhaustive():
    """On every labeled graph with n <= 6, each pair the peel yields has
    the shape it claims and lies in every perfect matching.  The peel
    empties a graph only when it has exactly one, and it empties every
    claw-free graph that has exactly one.  The peel runs on a view: its
    counts stay exact, and g keeps its flags and counts."""
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [p for i, p in enumerate(pairs)
                                     if mask >> i & 1])
            adj = g.adjacency
            pms = enumerate_pms(g, 16)
            work = g.view()
            dead = work.removed
            for x, y, u in _forced_pairs(work):
                work.check_symmetry()
                assert dead[x] and dead[y] and y in adj[x]
                live_x = [w for w in adj[x] if not dead[w]]
                live_y = [w for w in adj[y] if not dead[w]]
                if u == -1:
                    assert live_y == []
                else:
                    assert x < y and live_x == live_y == [u]
                assert all((x, y) in m for m in pms)
            work.check_symmetry()
            assert g.removed == [False] * n and g.live_count == n
            assert g.edge_count == bin(mask).count("1")
            emptied = False not in dead
            if emptied or find_claw(g) is None:
                assert emptied == (len(pms) == 1), (n, g.live_edges())


def test_elimination_needs_a_common_neighbour(monkeypatch):
    """1 and 2 have degree 2 but other neighbours 7 and 6, so 1-2 is not
    a pendant triangle.  Deleting it anyway would cascade through 3-6
    and empty the graph, calling it unique."""
    g = g_of(8, NEAR_TRIANGLE_EDGES)
    m = Matching([(0, 4), (1, 2), (3, 6), (5, 7)])
    search = uniqueness._augmenting_path
    calls = 0

    def counting_search(adj, flagged, *args):
        nonlocal calls
        calls += 1
        assert not any(flagged)
        return search(adj, flagged, *args)

    monkeypatch.setattr(uniqueness, "_augmenting_path", counting_search)
    w = is_unique_pm(g, m)
    assert w is not None and w.cycle == (0, 4, 5, 7, 3, 6, 0)
    assert calls
    _assert_witness(g, m, w)


def test_unique_peel_empties_two_fans(monkeypatch):
    """The claw at 0 leaves nothing to eliminate: one bridge round
    deletes 0-5, and the forced-pair peel of the next pass deletes the
    two fan paths it strands."""
    g = g_of(10, TWO_FANS_EDGES)
    m = Matching([(0, 5), (1, 2), (3, 4), (6, 7), (8, 9)])
    live = _peel_rounds(monkeypatch)
    monkeypatch.setattr(uniqueness, "_augmenting_path", _boom)
    assert is_unique_pm(g, m) is None
    assert live == [10]
    assert kotzig_peel(g, m)


@pytest.mark.parametrize("k", [125, 250, 500, 1000, 2000])
def test_fan_ladder_needs_one_bridge_round(monkeypatch, k):
    """One round deletes every c-d bridge and the last rung; the rest
    of the ladder is forced pairs for the next pass, not k rounds."""
    g, m = fan_ladder(k)
    live = _peel_rounds(monkeypatch)
    monkeypatch.setattr(uniqueness, "_augmenting_path", _boom)
    assert is_unique_pm(g, m) is None
    assert live == [12 * k]


@pytest.mark.parametrize("k", [125, 2000])
def test_chorded_fan_ladder_witness(monkeypatch, k):
    """The chord a_0-b_{k-1} closes an alternating cycle along the
    ladder; the second pass's DFS finds it, with no per-pair search."""
    g, m = fan_ladder(k, chord=True)
    live = _peel_rounds(monkeypatch)
    monkeypatch.setattr(uniqueness, "_augmenting_path", _boom)
    w = is_unique_pm(g, m)
    assert live == [12 * k]
    assert w is not None
    _assert_witness(g, m, w)


def test_dfs_finds_mid_chorded_chain_witness(monkeypatch):
    g, m = _mid_chorded_chain()
    assert not kotzig_peel(g, m)
    _no_fallback(monkeypatch)
    w = is_unique_pm(g, m)
    assert w is not None and w.cycle == (30, 31, 33, 32, 30)


def test_dfs_skips_degenerate_back_arcs(monkeypatch):
    """The DFS from 0 pushes the states 3, 6, 7, 2 and 1.  Its first
    back arc 1 -> 0 closes a degenerate cycle: it holds the pairs 0-6
    and 7-1.  After 1 and 2 are popped, 7 -> 3 closes the clean cycle
    3, 6, 7: the pair 7-1 left the stack with 1, so its lower position
    must no longer count against the arc."""
    g = g_of(8, [(3, 5), (4, 7), (0, 5), (4, 5), (2, 4), (1, 7), (0, 6),
                 (0, 4), (1, 6), (0, 3), (5, 7), (3, 7), (2, 7), (0, 7)])
    m = Matching([(0, 6), (1, 7), (2, 4), (3, 5)])
    _no_fallback(monkeypatch)
    w = is_unique_pm(g, m)
    assert w is not None and w.cycle == (0, 6, 1, 7, 5, 3, 0)
    _assert_witness(g, m, w)


def test_unique_fallback_stalled_search_raises(monkeypatch):
    # every back arc of this graph's DFS closes a degenerate cycle, no
    # pair is forced by degree and the peel stalls at once, so the
    # per-pair search must find the witness; a search that finds nothing
    # is a bug, not "unique"
    g = g_of(6, [(4, 5), (0, 5), (0, 4), (0, 3), (2, 3), (1, 3), (1, 2), (1, 5)])
    m = Matching([(0, 4), (1, 5), (2, 3)])
    assert is_unique_pm(g, m).cycle == (0, 4, 5, 1, 2, 3, 0)
    monkeypatch.setattr(uniqueness, "_augmenting_path", lambda *args: (None, []))
    with pytest.raises(RuntimeError, match="peel stalled"):
        is_unique_pm(g, m)


def test_unique_fallback_searches_after_peeling(monkeypatch):
    """A fan 0 over 1-2-3-4, tied by the matched bridge 0-5 to the graph
    of the previous test (shifted to 6-11): the forced-pair peel removes
    nothing, a bridge round deletes 0-5, the next pass's forced-pair
    peel deletes 1-2 and 3-4, and the next round finds no matched
    bridge; the per-pair search runs with exactly 0-5 flagged and its
    witness lies in the stalled part."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (0, 5),
             (5, 10), (5, 11), (10, 11), (6, 11), (6, 10), (6, 9), (8, 9),
             (7, 9), (7, 8), (7, 11)]
    g = g_of(12, edges)
    m = Matching([(0, 5), (1, 2), (3, 4), (6, 10), (7, 11), (8, 9)])
    search = uniqueness._augmenting_path

    def flagged_search(adj, flagged, *args):
        assert [v for v in range(12) if flagged[v]] == [0, 1, 2, 3, 4, 5]
        return search(adj, flagged, *args)

    live = _peel_rounds(monkeypatch)
    monkeypatch.setattr(uniqueness, "_augmenting_path", flagged_search)
    w = is_unique_pm(g, m)
    assert live == [12, 6]
    assert w is not None and w.cycle == (6, 10, 11, 7, 8, 9, 6)
    _assert_witness(g, m, w)


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
    cares), random graphs with a planted perfect matching, some with
    a lazily removed matched pair, and fan ladders, plain and chorded."""
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
    cases += [fan_ladder(k, chord) for k in range(1, 31)
              for chord in (False, True)]
    witnesses = 0
    for g, m in cases:
        w = is_unique_pm(g, m)
        assert (w is None) == kotzig_peel(g, m)
        if w is not None:
            witnesses += 1
            _assert_witness(g, m, w)
    assert witnesses > len(cases) // 3


def test_verdict_ignores_edge_order():
    """The DFS and the searches meet arcs in adjacency order, which is
    edge-list order: the verdict must not depend on it.  Planted graphs
    (some with a removed pair) and chorded class members, each rebuilt
    from three shuffles of its edge list."""
    rng = random.Random(0x5EED)
    cases = [_planted(2 * rng.randint(2, 40), rng) for _ in range(80)]
    for _ in range(80):
        g, _ = random_gclass(rng.randint(3, 60), op2_bias=rng.random(),
                             seed=rng.randrange(10**9))
        m = pmincf(g)
        _add_random_edges(g, rng.randint(1, 3), rng)
        cases.append((g, m))
    for g, m in cases:
        unique = is_unique_pm(g, m) is None
        dead = [u for u in range(g.n_total) if g.removed[u]]
        for _ in range(3):
            edges = [(v, u) if rng.random() < 0.5 else (u, v)
                     for u, v in g.live_edges()]
            rng.shuffle(edges)
            h = Graph.from_edges(g.n_total, edges)
            for u in dead:
                h.remove_vertex(u)
            w = is_unique_pm(h, m)
            assert (w is None) == unique, edges
            if w is not None:
                _assert_witness(h, m, w)


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


# -------------------------------------------------------- maximum_matching

def _max_matching_size(g):
    """Size of a maximum matching by exhaustive recursion (tiny graphs)."""
    def best(left):
        if not left:
            return 0
        u = min(left)
        rest = left - {u}
        return max([best(rest)] + [1 + best(rest - {v})
                                   for v in g.adjacency[u] if v in rest])
    return best(frozenset(g.live_vertices()))


def _assert_maximum_matching(g):
    """maximum_matching gives a matching of live edges, and it is perfect
    iff the oracle finds a perfect matching."""
    m = maximum_matching(g)
    assert all(g.has_edge(u, v) for u, v in m.pairs)
    assert (2 * len(m) == g.live_count) == bool(enumerate_pms(g, 1)), \
        g.live_edges()
    return m


def test_maximum_matching_exhaustive():
    for n in range(1, 7):
        for edges in iter_connected_edge_sets(n):
            g = Graph.from_edges(n, edges)
            m = _assert_maximum_matching(g)
            if n <= 5:
                assert len(m) == _max_matching_size(g), edges


def test_maximum_matching_random():
    """Seeded random graphs on 7-20 vertices, sparse enough that many have
    no perfect matching; every fourth loses one vertex lazily."""
    rng = random.Random(0x3D)
    perfect = 0
    for i in range(420):
        n = 7 + i % 14
        g = Graph.from_edges(
            n, random_connected_edge_set(n, rng, (0.15, 0.25, 0.35)[i % 3]))
        if i % 4 == 0:
            g.remove_vertex(rng.randrange(n))
        perfect += 2 * len(_assert_maximum_matching(g)) == g.live_count
    assert 0 < perfect < 420


def test_maximum_matching_planted():
    # beyond the oracle's reach: a planted perfect matching is always found
    rng = random.Random(0x3E)
    for _ in range(200):
        g, _ = _planted(2 * rng.randint(5, 60), rng)
        assert verify_pm(g, maximum_matching(g))


def test_maximum_matching_edge_cases():
    assert maximum_matching(Graph(0)) == Matching([])
    assert maximum_matching(Graph(3)) == Matching([])
    star = g_of(4, [(0, 1), (0, 2), (0, 3)])
    assert len(maximum_matching(star)) == 1
    a = 50  # K_{a,9a}: 8a exposed roots, all in one tree
    kab = g_of(10 * a, [(u, v) for u in range(a) for v in range(a, 10 * a)])
    assert len(maximum_matching(kab)) == a


def test_maximum_matching_skips_failed_trees(monkeypatch):
    """Edmonds: a root whose search fails never gets an augmenting path,
    and no later search enters its tree."""
    search = uniqueness._augmenting_path
    failed: set[int] = set()
    failures = 0

    def recording_search(*args):
        nonlocal failures
        path, tree = search(*args)
        assert not failed & set(tree)
        if path is None:
            failed.update(tree)
            failures += 1
        return path, tree

    monkeypatch.setattr(uniqueness, "_augmenting_path", recording_search)
    rng = random.Random(0x3F)
    graphs = [g_of(30, [(u, v) for u in range(3) for v in range(3, 30)])]
    for i in range(60):
        n = 12 + i % 9
        graphs.append(Graph.from_edges(
            n, random_connected_edge_set(n, rng, (0.1, 0.2)[i % 2])))
    for g in graphs:
        failed.clear()
        _assert_maximum_matching(g)
    assert failures > len(graphs)
