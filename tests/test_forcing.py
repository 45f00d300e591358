"""Forcing-set elimination and the split balance condition."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipm import (Graph, Matching, enumerate_pms, find_forcing_set,
                   is_unique_pm, serialize_graph)
from unipm.cli import main

from conftest import (C4_EDGES, K4_EDGES, P4_EDGES, SPIDER_EDGES, g_of,
                      random_connected_edge_set, split_balance)


def test_forcing_p4():
    cert = find_forcing_set(g_of(4, P4_EDGES))
    assert cert is not None
    assert cert.matching == Matching([(0, 1), (2, 3)])
    # 0 and 3 are queued first; 0's pair drops 2 to degree 1 behind 3's
    # entry, so 3 pops first (FIFO) and 2's entry goes stale
    assert cert.forced == ((0, 1), (3, 2))


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


# On the spider, leaves 0, 1, 2, 3 and 6 are queued at once; matching 3
# with 4 drops 5 to degree 1 and queues it behind 6, so 6 pops first
# (FIFO), and 5's entry goes stale because 5 leaves as 6's partner.
SPIDER_FORCED = ((0, 7), (1, 8), (2, 9), (3, 4), (6, 5))


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
    assert "forcing_order: 0,7 1,8 2,9 3,4 6,5\n" in out


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


def _random_order_empties(n, edges, rng):
    """Degree-1 forcing in a random order: match a random pendant to its
    neighbour and delete both until no pendant is left; True iff no
    vertex is left."""
    nbrs = {v: set() for v in range(n)}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    while True:
        pendants = sorted(v for v in nbrs if len(nbrs[v]) == 1)
        if not pendants:
            return not nbrs
        v = rng.choice(pendants)
        for x in (v, *nbrs[v]):
            for z in nbrs.pop(x):
                nbrs.get(z, set()).discard(x)


def test_forcing_success_does_not_depend_on_order(n8_sample):
    """On every labeled graph with n <= 6 and the n = 8 sample, the
    peel's FIFO order succeeds exactly when a seeded random order does.
    If some order empties G, G has one perfect matching M and every pair
    a stalled order deleted is in M, so the stalled remainder is G minus
    some M-pairs, and every live vertex there has its partner and
    degree at least 2.  The successful order's first step inside that
    remainder would then need a vertex of degree 1."""
    rng = random.Random(0x5EED)
    cases = [(n, [p for i, p in enumerate(combinations(range(n), 2))
                  if mask >> i & 1])
             for n in range(7) for mask in range(1 << n * (n - 1) // 2)]
    cases += [(8, [(u, w) for u in range(8) for w in g.adjacency[u] if u < w])
              for g, _ in n8_sample]
    emptied = 0
    for n, edges in cases:
        g = g_of(n, edges)
        cert = find_forcing_set(g)
        assert (cert is not None) == _random_order_empties(n, edges, rng), edges
        if cert is not None:
            _replay_certificate(g, cert)
            emptied += 1
    assert 0 < emptied < len(cases)


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
