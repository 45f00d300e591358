"""The greedy claw-free matcher and the uniqueness decision built on it."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipm import (Graph, Matching, PmincfStats, clique_chain, decide,
                   decision, enumerate_pms, find_claw, find_forcing_set,
                   pmincf, random_gclass, uniqueness, verify_pm)
from unipm.forcing import _forced_pairs

from conftest import (C4_EDGES, C6_EDGES, STAR_EDGES, fan_ladder, g_of,
                      iter_connected_edge_sets, mid_chorded_chain,
                      random_connected_edge_set)


def test_pmincf_k2():
    assert pmincf(g_of(2, [(0, 1)])) == Matching([(0, 1)])


def test_pmincf_paw_hand_trace(paw):
    """Adjacency order from edges 01, 02, 12, 03: seed 0-1, end-extend to
    2, no extension (lm_nb[2]=2 but 1 has no off-path neighbor), commit
    1-2; then path 0, end-extend to 3, commit 0-3."""
    m = pmincf(paw, debug_checks=True, check_connectivity=True)
    assert m == Matching([(0, 3), (1, 2)])


def test_pmincf_c6_contract():
    g = g_of(6, C6_EDGES)
    m = pmincf(g, debug_checks=True, check_connectivity=True)
    assert verify_pm(g, m) and len(m) == 3


def test_pmincf_odd_order_rejected():
    with pytest.raises(ValueError, match="odd"):
        pmincf(g_of(3, [(0, 1), (1, 2)]))


def test_pmincf_disconnected_odd_parts_detected():
    # two triangles: even total order, odd components; the promise fails
    g = g_of(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    with pytest.raises(ValueError, match="disconnected"):
        pmincf(g)


def test_pmincf_connectivity_check_fires():
    # on the claw K_{1,3} the first commit strands two leaves
    with pytest.raises(AssertionError, match="disconnected after commit"):
        pmincf(g_of(4, STAR_EDGES), check_connectivity=True)


def test_pmincf_empty():
    assert pmincf(Graph(0)) == Matching([])


def test_pmincf_does_not_mutate(paw):
    pmincf(paw)
    assert paw.live_count == 4 and paw.edge_count == 4


def test_pmincf_cursor_bound_and_stats(paw):
    stats = PmincfStats()
    pmincf(paw, stats=stats)
    assert 0 < stats.cursor_advances <= 2 * paw.edge_count
    assert stats.commits == 2
    assert stats.reseeds >= 1
    assert stats.edge_count == paw.edge_count


def test_pmincf_skips_removed_vertices():
    # cursors step over the dead entries 2 and 3; the advance bound
    # counts them, while edge_count sees only the live edge 0-1
    g = g_of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    g.remove_vertex(2)
    g.remove_vertex(3)
    stats = PmincfStats()
    assert pmincf(g, stats=stats, debug_checks=True) == Matching([(0, 1)])
    assert stats.cursor_advances > 2 * g.edge_count
    assert decide(g).matching == Matching([(0, 1)])


def test_pmincf_pinned_runs():
    """Exact matchings and counters: paw, K2 and C4 side by side (one
    reseed per component), a graph with removed vertices, and a clique
    chain."""
    multi = g_of(10, [(0, 1), (0, 2), (1, 2), (0, 3), (4, 5),
                      (6, 7), (7, 8), (8, 9), (9, 6)])
    holes = g_of(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                     (6, 7), (7, 0), (1, 5), (2, 6)])
    holes.remove_vertex(3)
    holes.remove_vertex(6)
    chain, _ = clique_chain(5)
    for g, pairs, counters in [
            (multi, [(0, 3), (1, 2), (4, 5), (6, 7), (8, 9)], (13, 8, 3, 5, 9)),
            (holes, [(0, 7), (1, 2), (4, 5)], (13, 12, 1, 3, 6)),
            (chain, [(2 * i, 2 * i + 1) for i in range(6)], (21, 11, 1, 6, 16))]:
        stats = PmincfStats()
        assert pmincf(g, stats=stats, debug_checks=True) == Matching(pairs)
        assert stats == PmincfStats(*counters)


def test_pmincf_isolated_vertex_on_reseed():
    # 0-1 is committed; the reseed at vertex 2 finds no live neighbor,
    # and the failed run still records the work it did
    stats = PmincfStats()
    with pytest.raises(ValueError, match="vertex 2 is stranded: the input "
                       "is disconnected or not claw-free"):
        pmincf(g_of(4, [(0, 1)]), stats=stats)
    assert stats == PmincfStats(cursor_advances=1, lm_nb_updates=1,
                                reseeds=2, commits=1, edge_count=1)


def test_pmincf_exhaustive_clawfree_small():
    """Every connected claw-free graph of even order n <= 6: valid perfect
    matching, no extension available at any commit."""
    count = 0
    for n in (2, 4, 6):
        for edges in iter_connected_edge_sets(n):
            g = Graph.from_edges(n, edges)
            if find_claw(g) is not None:
                continue
            count += 1
            m = pmincf(g, debug_checks=True, check_connectivity=True)
            assert verify_pm(g, m)
    assert count > 1000


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 60), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_pmincf_on_random_class_members(steps, bias, seed):
    g, _ = random_gclass(steps, op2_bias=bias, seed=seed)
    stats = PmincfStats()
    m = pmincf(g, stats=stats, debug_checks=True)
    assert verify_pm(g, m)
    assert stats.cursor_advances <= 2 * g.edge_count


# ------------------------------------------------------------ decide

def test_decide_paw(paw):
    d = decide(paw)
    assert d.unique and d.matching == Matching([(0, 3), (1, 2)])


def test_decide_c4_none():
    d = decide(g_of(4, C4_EDGES))
    assert not d.unique and d.witness is not None


def test_decide_disconnected_k2s():
    d = decide(g_of(4, [(0, 1), (2, 3)]))
    assert d.unique and d.matching == Matching([(0, 1), (2, 3)])


def test_decide_odd_component_none():
    g = g_of(8, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7)])
    d = decide(g)
    assert not d.unique and d.matching is None
    assert d.method == "edmonds" and d.reason == "no perfect matching"


def test_decide_odd_order_none():
    d = decide(g_of(3, [(0, 1), (1, 2)]))
    assert not d.unique and d.matching is None


def test_decide_discards_an_invalid_greedy_matching(monkeypatch):
    # verify_pm guards the greedy matcher's output; Edmonds takes over
    monkeypatch.setattr(decision, "pmincf",
                        lambda g: Matching([(0, 2), (1, 3)]))
    d = decide(g_of(4, C4_EDGES))
    assert d.method == "edmonds" and d.witness is not None


def test_decide_class_members_by_the_peel_alone(monkeypatch):
    # the forced-pair peel is decide's first stage and empties every
    # class member, so no later stage runs; the matching is the trace's
    def later_stage(*args):
        raise AssertionError("a stage after the peel ran on a class member")
    for name in ("pmincf", "maximum_matching", "is_unique_pm"):
        monkeypatch.setattr(decision, name, later_stage)
    rng = random.Random(0x14)
    members = [random_gclass(rng.randint(0, 255), op2_bias=rng.random(),
                             seed=seed) for seed in range(40)]
    members += [clique_chain(k) for k in (0, 1, 7, 500)]
    for g, trace in members:
        init, *ops = trace.steps
        d = decide(g)
        assert d.method == "forcing" and d.unique
        assert d.matching == Matching([(init.u, init.v)] +
                                      [(s.x, s.y) for s in ops])


def _chorded_member():
    """A random_gclass member plus the chord 33-37: the peel stops with
    20 of its 122 vertices left, and the matching is no longer unique."""
    g, _ = random_gclass(60, op2_bias=0.5, seed=13)
    g.add_edge(33, 37)
    return g


@pytest.mark.parametrize("make, unique", [
    (mid_chorded_chain, False), (_chorded_member, False),
    (lambda: fan_ladder(3)[0], True),
], ids=["mid_chorded_chain", "chorded_member", "fan_ladder"])
def test_decide_peels_once(monkeypatch, make, unique):
    """The matcher gets what decide's peel leaves, and the verifier's
    first pass over it finds no forced pair left to delete."""
    g = make()
    rest = g.view()
    peeled = list(_forced_pairs(rest))
    assert rest.live_count > 0
    matched = []

    def matcher(h):
        matched.append((h.live_count, h.removed.count(False)))
        return pmincf(h)

    passes = []

    def recording(h):
        passes.append([])
        for pair in _forced_pairs(h):
            passes[-1].append(pair)
            yield pair

    monkeypatch.setattr(decision, "pmincf", matcher)
    monkeypatch.setattr(uniqueness, "_forced_pairs", recording)
    d = decide(g)
    assert matched == [(rest.live_count, rest.live_count)]
    assert passes and passes[0] == []
    assert d.unique == unique and verify_pm(g, d.matching)
    assert all((x, y) in d.matching for x, y, _ in peeled)
    if not unique:
        second = d.witness.swapped(d.matching)
        assert second != d.matching and verify_pm(g, second)


def _assert_agrees(g, pms, d):
    """d is the oracle's answer: its one matching, a witness of a second
    one, or no matching at all."""
    assert d.unique == (len(pms) == 1), g.live_edges()
    if d.unique:
        assert d.matching == pms[0], g.live_edges()
    elif pms:
        assert verify_pm(g, d.matching), g.live_edges()
        second = d.witness.swapped(d.matching)
        assert second != d.matching and verify_pm(g, second), g.live_edges()
    else:
        assert d.matching is None, g.live_edges()
        assert d.method == "edmonds" and d.reason == "no perfect matching"


def _oracle_cases(n8_sample):
    """(graph, oracle answer) for every labeled graph with n <= 6, the
    n = 8 sample, and seeded graphs on 7-9 vertices with one vertex
    lazily removed."""
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = g_of(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            yield g, enumerate_pms(g, 2)
    yield from n8_sample
    rng = random.Random(0x79)
    for _ in range(5000):
        n = rng.randint(7, 9)
        g = g_of(n, [p for p in combinations(range(n), 2)
                     if rng.random() < 0.4])
        g.remove_vertex(rng.randrange(n))
        yield g, enumerate_pms(g, 2)


def test_decide_agreement_with_oracle_exhaustive(n8_sample):
    """Disconnected, odd-order, empty and clawed graphs included; every
    method decides some of them."""
    methods = set()
    for g, pms in _oracle_cases(n8_sample):
        d = decide(g)
        _assert_agrees(g, pms, d)
        # the peel empties every graph degree-1 forcing empties
        if find_forcing_set(g) is not None:
            assert d.method == "forcing", g.live_edges()
        methods.add(d.method)
    assert methods == {"forcing", "clawfree", "edmonds"}


@settings(max_examples=80, deadline=None)
@given(st.integers(4, 8), st.integers(0, 10**6))
def test_decide_agreement_with_oracle_random(n, seed):
    if n % 2:
        n += 1
    g = Graph.from_edges(n, random_connected_edge_set(n, random.Random(seed)))
    _assert_agrees(g, enumerate_pms(g, 2), decide(g))
