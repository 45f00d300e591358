"""Interval parsing, intersection graphs, and the matching sweep."""

import heapq
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipm import (Graph, IntervalParseError, IntervalPMError, IntervalRep,
                   Matching, decide, enumerate_pms, intersection_graph,
                   interval_pm, interval_instance, maximum_matching,
                   normalize_endpoints, parse_intervals, verify_pm)
from unipm.forcing import _forced_pairs

NESTED_REP = IntervalRep(((1, 10), (2, 3), (4, 9), (5, 6)))


# ---------------------------------------------------------------- parsing

def test_parse_two_intervals():
    rep = parse_intervals("2\n0 1 4\n1 3 5\n")
    assert rep.intervals == ((1, 4), (3, 5))


def test_parse_duplicate_endpoint():
    with pytest.raises(IntervalParseError, match="endpoints not distinct"):
        parse_intervals("2\n0 1 4\n1 4 6\n")


def test_parse_degenerate_interval():
    with pytest.raises(IntervalParseError, match="l >= r"):
        parse_intervals("1\n0 5 5\n")


def test_parse_four_interval_rep():
    rep = parse_intervals("4\n0 1 10\n1 2 3\n2 4 9\n3 5 6\n")
    assert rep == NESTED_REP


def test_parse_count_mismatch():
    with pytest.raises(IntervalParseError, match="expected 2"):
        parse_intervals("2\n0 1 4\n")
    with pytest.raises(IntervalParseError, match="repeated"):
        parse_intervals("2\n0 1 4\n0 6 8\n")


# ----------------------------------------------------------- intersection

def test_intersection_nested_example():
    g = intersection_graph(NESTED_REP)
    assert g.live_edges() == [(0, 1), (0, 2), (0, 3), (2, 3)]


def test_intersection_disjoint_and_nested():
    assert intersection_graph(IntervalRep(((1, 2), (3, 4)))).live_edges() == []
    assert intersection_graph(IntervalRep(((1, 10), (2, 3)))).live_edges() == [(0, 1)]


def test_intersection_matches_pairwise_definition():
    for n, seed in [(0, 0), (1, 1), (9, 5), (40, 2), (80, 3), (150, 4)]:
        rep = interval_instance(n, seed=seed)
        g = intersection_graph(rep)
        for u in range(n):
            for v in range(u + 1, n):
                lu, ru = rep.intervals[u]
                lv, rv = rep.intervals[v]
                assert g.has_edge(u, v) == (max(lu, lv) < min(ru, rv))
        # the same adjacency, neighbor order included, as from_edges
        # builds from the sweep's edges in the order the sweep meets them
        active, edges = [], []
        for v in sorted(range(n), key=lambda v: rep.intervals[v][0]):
            l, r = rep.intervals[v]
            while active and active[0][0] < l:
                heapq.heappop(active)
            edges.extend((v, w) for _, w in active)
            heapq.heappush(active, (r, v))
        ref = Graph.from_edges(n, edges)
        assert g.adjacency == ref.adjacency
        assert g.edge_count == ref.edge_count == len(edges)


# ----------------------------------------------------------------- sweep

def test_interval_pm_nested_example():
    assert interval_pm(NESTED_REP) == Matching([(0, 1), (2, 3)])
    assert len(enumerate_pms(intersection_graph(NESTED_REP), 2)) == 1


def test_interval_pm_two_k2():
    rep = IntervalRep(((1, 4), (3, 5), (6, 9), (8, 10)))
    assert interval_pm(rep) == Matching([(0, 1), (2, 3)])


def test_interval_pm_non_unique_needs_verification():
    rep = IntervalRep(((1, 4), (2, 6), (3, 8), (5, 9)))
    m = interval_pm(rep)
    assert m == Matching([(0, 1), (2, 3)])
    from unipm import is_unique_pm
    assert is_unique_pm(intersection_graph(rep), m) is not None


def test_interval_pm_odd():
    with pytest.raises(IntervalPMError, match="odd order"):
        interval_pm(IntervalRep(((1, 2),)))


def test_interval_pm_stuck():
    with pytest.raises(IntervalPMError, match="stuck at vertex 0"):
        interval_pm(IntervalRep(((1, 2), (3, 4))))


def test_interval_pm_empty():
    assert interval_pm(IntervalRep(())) == Matching([])


def _sweep_thresholds(rep):
    """Right endpoints of the chosen u* vertices, in matching order."""
    m = interval_pm(rep)
    # reconstruct: u* of each round is the pair endpoint with smaller r
    rounds = sorted(
        (min(rep.intervals[u][1], rep.intervals[v][1]) for u, v in m.pairs))
    return rounds


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10**6))
def test_interval_pm_exact_under_unique_promise(half, seed):
    rep = interval_instance(2 * half, seed=seed)
    g = intersection_graph(rep)
    pms = enumerate_pms(g, 2)
    try:
        m = interval_pm(rep)
    except IntervalPMError:
        assert len(pms) != 1  # the rule cannot get stuck on unique instances
        return
    if len(pms) == 1:
        assert m == pms[0]
        # monotonicity: thresholds strictly increase round over round
        rounds = _sweep_thresholds(rep)
        assert all(a < b for a, b in zip(rounds, rounds[1:]))


def test_interval_pm_stuck_only_without_perfect_matching():
    """The rule gets stuck only when the intersection graph has no
    perfect matching; otherwise it returns a perfect matching.  So an
    answer with no matching (``unipm interval``'s "stuck" reason) is
    right to call the graph not-unique."""
    stuck = 0
    for seed in range(10_000):
        rep = interval_instance(2 * (seed % 8), seed=seed)
        g = intersection_graph(rep)
        try:
            m = interval_pm(rep)
        except IntervalPMError:
            stuck += 1
            assert 2 * len(maximum_matching(g)) < rep.n, rep
            continue
        assert verify_pm(g, m), rep
    assert stuck > 1000  # the stuck branch is exercised


def test_step_invariant_on_unique_instances():
    """Each chosen pair belongs to the unique matching of the current
    sub-representation, round by round."""
    found = 0
    seed = 0
    while found < 20:
        seed += 1
        rep = interval_instance(8, seed=seed)
        g = intersection_graph(rep)
        pms = enumerate_pms(g, 2)
        if len(pms) != 1:
            continue
        found += 1
        remaining = list(range(rep.n))
        cur = rep
        index = list(range(rep.n))
        while remaining:
            m = interval_pm(cur)
            sub_pms = enumerate_pms(intersection_graph(cur), 2)
            assert len(sub_pms) == 1
            # the first round's pair: endpoint with globally smallest r
            u_star = min(range(cur.n), key=lambda v: cur.intervals[v][1])
            pair = next(p for p in m.pairs if u_star in p)
            assert pair in sub_pms[0]
            keep = [v for v in range(cur.n) if v not in pair]
            cur = IntervalRep(tuple(cur.intervals[v] for v in keep))
            remaining = remaining[2:]


def test_interval_pm_sweeps_only_live_vertices():
    # with 1 and 2 flagged, 0 and 3 are disjoint; with 0 and 3, 1-2 remain
    rep = IntervalRep(((1, 4), (3, 6), (5, 8), (7, 10)))
    with pytest.raises(IntervalPMError, match="stuck at vertex 0"):
        interval_pm(rep, [False, True, True, False])
    assert interval_pm(rep, [True, False, False, True]) == Matching([(1, 2)])
    with pytest.raises(IntervalPMError, match="odd order"):
        interval_pm(rep, [True, False, False, False])


# ------------------------------------------------- left-order vectors

def left_order_rep(a) -> IntervalRep:
    """Vertex i meets every j with i < j <= i + a[i], and no later one:
    the intervals [100 i, 100 (i + a_i) + 1 + i], with distinct ends."""
    return IntervalRep(tuple((100 * i, 100 * (i + d) + 1 + i)
                             for i, d in enumerate(a)))


def test_counterexample_unique_but_unpeeled():
    # a unique interval graph with no pendant and no pendant triangle:
    # the peel deletes nothing, so the sweep runs on all 10 vertices
    rep = left_order_rep((2, 2, 2, 2, 0, 3, 1, 2, 1, 0))
    g = intersection_graph(rep)
    assert g.live_edges() == [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5),
        (5, 6), (5, 7), (5, 8), (6, 7), (7, 8), (7, 9), (8, 9)]
    work = g.view()
    assert list(_forced_pairs(work)) == [] and work.live_count == 10
    expected = Matching([(0, 1), (2, 4), (3, 5), (6, 7), (8, 9)])
    assert enumerate_pms(g, 2) == [expected]
    d = decide(g)
    assert (d.method, d.unique, d.matching) == ("clawfree", True, expected)
    d = decide(g, rep)
    assert (d.method, d.unique, d.matching) == ("interval", True, expected)
    assert d.reason is None


def test_decide_sweeps_only_the_live_vertices():
    # the counterexample with an 11th interval meeting only vertex 9,
    # flagged removed: the sweep must leave it out, as the peel does
    rep = left_order_rep((2, 2, 2, 2, 0, 3, 1, 2, 1, 1, 0))
    g = intersection_graph(rep)
    assert g.has_edge(9, 10)
    g.remove_vertex(10)
    d = decide(g, rep)
    assert (d.method, d.unique) == ("interval", True)
    assert d.matching == Matching([(0, 1), (2, 4), (3, 5), (6, 7), (8, 9)])


def test_decide_refuses_a_representation_of_another_order():
    rep = left_order_rep((1, 0))
    with pytest.raises(ValueError, match="2 intervals for a graph on 3"):
        decide(Graph(3), rep)


def test_decide_checks_the_representation_of_a_stuck_sweep():
    # disjoint intervals of the right order, but not g's: the sweep gets
    # stuck, an edge of g does not overlap in rep, and Edmonds decides g
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    d = decide(c4, IntervalRep(((1, 2), (3, 4), (5, 6), (7, 8))))
    assert (d.method, d.unique) == ("edmonds", False)
    assert d.witness.cycle == (0, 1, 2, 3, 0)
    g = intersection_graph(left_order_rep((2, 2, 2, 2, 0, 3, 1, 2, 1, 0)))
    disjoint = IntervalRep(tuple((2 * v, 2 * v + 1) for v in range(10)))
    d = decide(g, disjoint)
    assert (d.method, d.unique) == ("edmonds", True)
    assert d.matching == Matching([(0, 1), (2, 4), (3, 5), (6, 7), (8, 9)])


def test_every_interval_graph_up_to_8_vertices():
    """Every interval graph on 1..8 vertices, as a left-order vector a
    with 0 <= a_i <= n - 1 - i (n! of them for each n): decide with and
    without the representation agrees with the oracle, and the sweep
    fails exactly on the graphs with no perfect matching, so Edmonds'
    search never runs beside it."""
    graphs = unique = 0
    for n in range(1, 9):
        for a in product(*(range(n - i) for i in range(n))):
            rep = left_order_rep(a)
            g = intersection_graph(rep)
            pms = enumerate_pms(g, 2)
            try:
                swept = interval_pm(rep)
            except IntervalPMError:
                swept = None
            assert (swept is None) == (not pms), a
            with_rep = decide(g, rep)
            assert with_rep.method != "edmonds", a
            for d in (decide(g), with_rep):
                assert d.unique == (len(pms) == 1), (a, d)
                assert (d.matching is None) == (not pms), (a, d)
                if d.unique:
                    assert d.matching == pms[0], (a, d)
                elif d.witness is not None:
                    second = d.witness.swapped(d.matching)
                    assert second != d.matching and verify_pm(g, second), a
            graphs += 1
            unique += len(pms) == 1
    assert graphs == 46_233
    assert unique == 3_027  # 2,892 at n = 8; the peel empties each one

def test_normalize_makes_endpoints_distinct():
    rep = normalize_endpoints([(0, 5), (0, 3), (3, 5)])
    flat = [e for iv in rep.intervals for e in iv]
    assert sorted(flat) == list(range(1, 7))


def test_normalize_preserves_adjacency_without_ties():
    rep = interval_instance(8, seed=11)
    renorm = normalize_endpoints(list(rep.intervals))
    assert intersection_graph(rep).live_edges() == \
        intersection_graph(renorm).live_edges()
