"""Shared fixtures: named small graphs and exhaustive/random corpora."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import pytest

from unipm import Graph, Matching, clique_chain, enumerate_pms

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


def g_of(n: int, edges) -> Graph:
    return Graph.from_edges(n, edges)


def mid_chorded_chain() -> Graph:
    """clique_chain(31) plus the chord 31-33, which closes the alternating
    cycle 30-31-33-32 mid-chain: the matched-bridge peel stalls only
    after n/4 rounds."""
    g, _ = clique_chain(31)
    g.add_edge(31, 33)
    return g


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
