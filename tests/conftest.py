"""Shared fixtures: named small graphs, exhaustive/random corpora, and
brute-force class recognizers for test-scale graphs."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import pytest

from unipm import Graph, Matching, clique_chain, enumerate_pms, is_clique

# hand-checked ground truth used across modules
PAW_EDGES = [(0, 1), (0, 2), (1, 2), (0, 3)]           # triangle + pendant
P4_EDGES = [(0, 1), (1, 2), (2, 3)]
C4_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
STAR_EDGES = [(0, 1), (0, 2), (0, 3)]                  # K_{1,3}
C6_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
# two triangles joined by a matched edge: unique PM, min degree 2, and the
# naive alternating-cycle digraph is cyclic; its pendant triangles 2-3
# and 4-5 are forced pairs, so the verifier's forced-pair peel empties it
FLOWER_EDGES = [(0, 1), (2, 3), (4, 5), (0, 3), (0, 2), (1, 4), (1, 5)]
# fan 0 over the path 1-2-3-4, fan 5 over 6-7-8-9, and the bridge 0-5:
# unique PM {0-5, 1-2, 3-4, 6-7, 8-9}, a claw at 0, no forced pair of
# degree <= 2 to delete, and the matched-bridge peel empties it
TWO_FANS_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4),
                  (5, 6), (5, 7), (5, 8), (5, 9), (6, 7), (7, 8), (8, 9),
                  (0, 5)]
# M = {0-4, 1-2, 3-6, 5-7}: 1 and 2 have degree 2 but different other
# neighbours (7 and 6), so 1-2 is no pendant triangle; the forced-pair
# peel removes nothing, the digraph DFS is inconclusive, the bridge peel
# removes nothing, and only the per-pair search finds the alternating cycle
NEAR_TRIANGLE_EDGES = [(0, 4), (0, 5), (0, 6), (1, 2), (1, 7), (2, 6),
                       (3, 6), (3, 7), (4, 5), (5, 7)]
# spider on center 4: legs 4-7-0, 4-8-1, 4-9-2, 4-5-6 and the pendant 4-3
SPIDER_EDGES = [(4, 7), (7, 0), (4, 8), (8, 1), (4, 9), (9, 2), (4, 3),
                (4, 5), (5, 6)]


def g_of(n: int, edges) -> Graph:
    return Graph.from_edges(n, edges)


def mid_chorded_chain() -> Graph:
    """clique_chain(31) plus the chord 31-33, which closes the alternating
    cycle 30-31-33-32 mid-chain: the verifier's first DFS finds it, while
    ``kotzig_peel`` runs n/4 bridge rounds before it stalls."""
    g, _ = clique_chain(31)
    g.add_edge(31, 33)
    return g


def fan_ladder(k: int, chord: bool = False) -> tuple[Graph, Matching]:
    """The fan ladder: n = 12k, unique perfect matching, claws.

    Matched pairs a_i-b_i (i < k) with edges b_i-a_{i+1} and
    a_i-a_{i+1}.  At each b_i hangs, by the unmatched edge b_i-c, a
    two-fan gadget: fan c over the path p1-p2-p3-p4, fan d over
    q1-q2-q3-q4, the matched bridge c-d and the pairs p1p2, p3p4, q1q2,
    q3q4.  Its back arcs are all degenerate and no pair is forced by
    degree; deleting every matched bridge at once (each c-d and the last
    rung a_{k-1}-b_{k-1}) strands the rest as forced pairs.  With
    ``chord`` the edge a_0-b_{k-1} closes an alternating cycle along
    the ladder, so the matching is no longer unique.  Vertex 12i + j
    is a_i, b_i, c, p1..p4, d, q1..q4 for j = 0, 1, 2, 3..6, 7, 8..11.
    """
    edges, pairs = [], []
    for i in range(k):
        a, b, c, d = 12 * i, 12 * i + 1, 12 * i + 2, 12 * i + 7
        pairs += [(a, b), (c, d)]
        if i + 1 < k:
            edges += [(b, a + 12), (a, a + 12)]
        edges += [(a, b), (b, c), (c, d)]
        for f in (c, d):
            path = range(f + 1, f + 5)
            edges += [(f, p) for p in path]
            edges += [(p, p + 1) for p in path[:-1]]
            pairs += [(f + 1, f + 2), (f + 3, f + 4)]
    if chord:
        edges.append((0, 12 * k - 11))
    return Graph.from_edges(12 * k, edges), Matching(pairs)


def is_cograph_bruteforce(g: Graph) -> bool:
    """True iff the live graph has no induced P4 (quadruple enumeration).

    Test-scale utility; intended for live_count <= ~12.
    """
    live = list(g.live_vertices())
    adjsets = {u: set(g.adjacency[u]) for u in live}
    for quad in combinations(live, 4):
        deg = [sum(1 for b in quad if b != a and b in adjsets[a]) for a in quad]
        if sum(deg) == 6 and sorted(deg) == [1, 1, 2, 2]:
            return False
    return True


def is_split_bruteforce(g: Graph) -> tuple[set[int], set[int]] | None:
    """Partition of live vertices into (independent S, clique C), or None.

    Exhaustive over clique candidates by bitmask; first hit in mask
    order is returned.  Test-scale utility.
    """
    live = list(g.live_vertices())
    k = len(live)
    if k == 0:
        return set(), set()
    index = {u: i for i, u in enumerate(live)}
    nbr_mask = [0] * k
    for i, u in enumerate(live):
        for w in g.adjacency[u]:
            if not g.removed[w]:
                nbr_mask[i] |= 1 << index[w]
    full = (1 << k) - 1
    for cmask in range(full + 1):
        ok = True
        for i in range(k):
            bit = 1 << i
            if cmask & bit:
                # i must see every other clique member
                if (cmask & ~bit) & ~nbr_mask[i]:
                    ok = False
                    break
            else:
                # i must see no other independent member
                if (~cmask & full & ~bit) & nbr_mask[i]:
                    ok = False
                    break
        if ok:
            clique = {live[i] for i in range(k) if cmask & (1 << i)}
            indep = {live[i] for i in range(k) if not cmask & (1 << i)}
            return indep, clique
    return None


def split_balance(g: Graph, indep: set[int], clique: set[int]) -> bool:
    """True iff |C| - |S| is 0 or 2 for a valid split partition (S, C).

    Necessary condition for a split graph to have a unique perfect
    matching.  Raises on an invalid partition.
    """
    live = set(g.live_vertices())
    if indep & clique or (indep | clique) != live:
        raise ValueError("S and C must partition the live vertices")
    for u in indep:
        for w in g.adjacency[u]:
            if w in indep:
                raise ValueError(f"S is not independent: edge {u}-{w}")
    if not is_clique(g, clique):
        raise ValueError("C is not a clique")
    return len(clique) - len(indep) in (0, 2)


@pytest.fixture
def paw() -> Graph:
    return g_of(4, PAW_EDGES)


@pytest.fixture
def flower() -> Graph:
    return g_of(6, FLOWER_EDGES)


def iter_connected_edge_sets(n: int):
    """All connected labeled graphs on n vertices as edge lists.

    Connectivity is tested on bitmask adjacency before any Graph object
    is built, which keeps exhaustive n=6 sweeps cheap.
    """
    pairs = list(combinations(range(n), 2))
    full = (1 << n) - 1
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
        if seen == full:
            yield [(u, v) for i, (u, v) in enumerate(pairs) if mask >> i & 1]


def random_connected_edge_set(n: int, rng: random.Random, p: float = 0.35):
    """Edge list of a random connected graph (rejection sampling)."""
    pairs = list(combinations(range(n), 2))
    full = (1 << n) - 1
    while True:
        adj = [0] * n
        edges = []
        for u, v in pairs:
            if rng.random() < p:
                edges.append((u, v))
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
        if seen == full:
            return edges


@dataclass(frozen=True)
class CorpusEntry:
    n: int
    edges: tuple[tuple[int, int], ...]
    graph: Graph
    pms: tuple[Matching, ...]  # oracle output, cap 2

    @property
    def unique(self) -> bool:
        return len(self.pms) == 1


@pytest.fixture(scope="session")
def small_corpus() -> list[CorpusEntry]:
    """Every connected labeled graph with n in {2, 4, 6} plus its oracle
    verdict (perfect matchings, capped at 2).  Shared by the acceptance
    criteria; 26743 graphs, built once per session.
    """
    entries = []
    for n in (2, 4, 6):
        for edges in iter_connected_edge_sets(n):
            g = Graph.from_edges(n, edges)
            pms = tuple(enumerate_pms(g, 2))
            entries.append(CorpusEntry(n, tuple(edges), g, pms))
    return entries


N8_SAMPLE_SIZE = 10_000


@pytest.fixture(scope="session")
def n8_sample():
    """Seeded random connected graphs on 8 vertices with oracle output."""
    rng = random.Random(0xC1)
    sample = []
    for i in range(N8_SAMPLE_SIZE):
        p = (0.25, 0.35, 0.5)[i % 3]
        g = Graph.from_edges(8, random_connected_edge_set(8, rng, p=p))
        sample.append((g, tuple(enumerate_pms(g, 2))))
    return sample
