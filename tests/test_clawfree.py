"""The greedy claw-free matcher and the uniqueness decision built on it."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipm import (Graph, Matching, PmincfStats, decide_unique_clawfree,
                   enumerate_pms, find_claw, pmincf, random_gclass, verify_pm)

from conftest import (C4_EDGES, C6_EDGES, PAW_EDGES, g_of,
                      iter_connected_edge_sets, random_connected_edge_set)


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
    assert decide_unique_clawfree(g) == Matching([(0, 1)])


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
    assert decide_unique_clawfree(paw) == Matching([(0, 3), (1, 2)])


def test_decide_c4_none():
    assert decide_unique_clawfree(g_of(4, C4_EDGES)) is None


def test_decide_disconnected_k2s():
    g = g_of(4, [(0, 1), (2, 3)])
    assert decide_unique_clawfree(g) == Matching([(0, 1), (2, 3)])


def test_decide_odd_component_none():
    g = g_of(8, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7)])
    assert decide_unique_clawfree(g) is None


def test_decide_odd_order_none():
    assert decide_unique_clawfree(g_of(3, [(0, 1), (1, 2)])) is None


def test_decide_agreement_with_oracle_exhaustive():
    for n in (2, 4, 6):
        for edges in iter_connected_edge_sets(n):
            g = Graph.from_edges(n, edges)
            if find_claw(g) is not None:
                continue
            pms = enumerate_pms(g, 2)
            got = decide_unique_clawfree(g)
            if len(pms) == 1:
                assert got == pms[0]
            else:
                assert got is None


@settings(max_examples=80, deadline=None)
@given(st.integers(4, 8), st.integers(0, 10**6))
def test_decide_agreement_with_oracle_random(n, seed):
    if n % 2:
        n += 1
    g = Graph.from_edges(n, random_connected_edge_set(n, random.Random(seed)))
    if find_claw(g) is not None:
        return
    pms = enumerate_pms(g, 2)
    got = decide_unique_clawfree(g)
    assert (got is not None) == (len(pms) == 1)
