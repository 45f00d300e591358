"""Removal flags written by hand count and answer like ``remove_vertex``.

A graph records a deletion only in ``removed``, so every entry point
must read a flag set directly the same way as one set by
``remove_vertex``, counts included.
"""

import random

import pytest

from unipm import (Graph, Matching, decide, decompose, find_forcing_set,
                   is_unique_pm, kotzig_peel, maximum_matching, pmincf,
                   verify_pm)

from conftest import C4_EDGES, PAW_EDGES, random_connected_edge_set


def flagged(n, edges, off):
    """The graph on n vertices with the ids in off flagged by hand, and
    the same graph with them deleted by ``remove_vertex``."""
    g, h = Graph.from_edges(n, edges), Graph.from_edges(n, edges)
    for v in off:
        g.removed[v] = True
        h.remove_vertex(v)
    return g, h


def answers(g, m):
    return [verify_pm(g, m), is_unique_pm(g, m), kotzig_peel(g, m),
            pmincf(g), maximum_matching(g), find_forcing_set(g),
            decompose(g), decide(g)]


@pytest.mark.parametrize("edges, pairs, unique", [
    (PAW_EDGES, [(0, 3), (1, 2)], True),
    (C4_EDGES, [(0, 1), (2, 3)], False),
], ids=["paw", "c4"])
def test_flags_set_by_hand_answer_like_remove_vertex(edges, pairs, unique):
    # the extra edge 4-5 has both ends flagged, so only the 4-vertex
    # graph is live, and it must answer as if 4 and 5 never existed
    g, h = flagged(6, edges + [(4, 5)], (4, 5))
    assert (g.live_count, g.edge_count) == (4, len(edges))
    m = Matching(pairs)
    got = answers(g, m)
    assert got == answers(h, m) == answers(Graph.from_edges(4, edges), m)
    assert got[-1].unique == unique


def test_random_flags_set_by_hand():
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randint(2, 12)
        edges = random_connected_edge_set(n, rng)
        off = set(rng.sample(range(n), rng.randint(0, min(3, n))))
        g, h = flagged(n, edges, off)
        assert g.live_count == n - len(off)
        assert g.edge_count == sum(u not in off and v not in off
                                   for u, v in edges)
        assert decide(g) == decide(h)
