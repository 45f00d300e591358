"""Forcing-set elimination and the split balance condition."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipm import (Graph, Matching, enumerate_pms, find_forcing_set,
                   is_unique_pm, serialize_graph)
from unipm.cli import main

from conftest import (C4_EDGES, FLOWER_EDGES, K4_EDGES, P4_EDGES, PAW_EDGES,
                      g_of, random_connected_edge_set, split_balance)


def test_forcing_p4():
    cert = find_forcing_set(g_of(4, P4_EDGES))
    assert cert is not None
    assert cert.matching == Matching([(0, 1), (2, 3)])
    assert cert.forced == ((0, 1), (2, 3))  # lowest-id degree-1 pops first


def test_forcing_c4_fails():
    assert find_forcing_set(g_of(4, C4_EDGES)) is None


def test_forcing_paw(paw):
    cert = find_forcing_set(paw)
    assert cert is not None
    assert cert.forced == ((3, 0), (1, 2))
    assert cert.matching == Matching([(0, 3), (1, 2)])


def test_forcing_odd_and_isolated():
    assert find_forcing_set(g_of(3, [(0, 1), (1, 2)])) is None
    assert find_forcing_set(g_of(4, [(0, 1), (1, 2)])) is None  # 3 isolated


def test_forcing_empty_graph():
    cert = find_forcing_set(Graph(0))
    assert cert is not None and cert.forced == () and len(cert.matching) == 0


def test_forcing_does_not_mutate(paw):
    find_forcing_set(paw)
    assert paw.live_count == 4


def test_forcing_flower_incompleteness(flower):
    """Unique perfect matching, min degree 2: elimination cannot start."""
    assert len(enumerate_pms(flower, 2)) == 1
    assert min(map(len, flower.adjacency)) >= 2  # no vertex is removed
    assert find_forcing_set(flower) is None


def test_forcing_respects_removal(paw):
    paw.remove_vertex(3)
    assert find_forcing_set(paw) is None  # odd live order


# spider on center 4: legs 4-7-0, 4-8-1, 4-9-2, 4-5-6 and the pendant 4-3.
# Leaves 0, 1, 2, 3 and 6 are queued at once; matching 3 with 4 drops 5 to
# degree 1 after 6 was queued, yet 5 pops first (lowest id), and 6's entry
# goes stale because 6 leaves as 5's partner.
SPIDER_EDGES = [(4, 7), (7, 0), (4, 8), (8, 1), (4, 9), (9, 2), (4, 3),
                (4, 5), (5, 6)]
SPIDER_FORCED = ((0, 7), (1, 8), (2, 9), (3, 4), (5, 6))


def test_forcing_order_pinned():
    assert find_forcing_set(g_of(10, SPIDER_EDGES)).forced == SPIDER_FORCED
    # removed vertex 10 still sits in the adjacency lists of leaves 0 and 3
    # and of 5; counting it would change their degrees and so the order
    g = g_of(11, SPIDER_EDGES + [(10, 0), (10, 3), (10, 5)])
    g.remove_vertex(10)
    assert find_forcing_set(g).forced == SPIDER_FORCED


def test_force_cli_order_pinned(tmp_path, capsys):
    f = tmp_path / "spider.g"
    f.write_text(serialize_graph(g_of(10, SPIDER_EDGES)))
    assert main(["force", str(f)]) == 0
    out = capsys.readouterr().out
    assert "forcing_order: 0,7 1,8 2,9 3,4 5,6\n" in out


def _replay_certificate(g, cert):
    """Re-derive degrees along the recorded order; each u_i must have
    degree exactly 1 with v_i as its sole neighbor."""
    alive = [g.is_live(u) for u in range(g.n_total)]
    for u, v in cert.forced:
        nbrs = [w for w in g.adjacency[u] if alive[w]]
        assert nbrs == [v] or (len(nbrs) == 1 and nbrs[0] == v)
        alive[u] = alive[v] = False
    assert not any(alive)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_forcing_sound_and_replayable(n, seed):
    if n % 2:
        n += 1
    g = Graph.from_edges(n, random_connected_edge_set(n, random.Random(seed)))
    cert = find_forcing_set(g)
    if cert is None:
        return
    assert len(cert.forced) * 2 == g.live_count
    assert is_unique_pm(g, cert.matching) is None
    _replay_certificate(g, cert)


# ------------------------------------------------------------- balance

def test_split_balance_paw(paw):
    assert split_balance(paw, {3}, {0, 1, 2})


def test_split_balance_k2():
    assert split_balance(g_of(2, [(0, 1)]), set(), {0, 1})


def test_split_balance_k4():
    assert not split_balance(g_of(4, K4_EDGES), set(), {0, 1, 2, 3})


def test_split_balance_validates_partition(paw):
    with pytest.raises(ValueError, match="partition"):
        split_balance(paw, {3}, {0, 1})
    with pytest.raises(ValueError, match="independent"):
        split_balance(paw, {1, 2}, {0, 3})
    with pytest.raises(ValueError, match="clique"):
        split_balance(g_of(4, P4_EDGES), {0, 2}, {1, 3})
