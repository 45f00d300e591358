"""Seeded instance generators for the test families and the benchmark.

All generators are deterministic for a fixed seed.
"""

from __future__ import annotations

import random

from .graph import Graph
from .gclass import InitStep, Op2Step, Step
from .interval import IntervalRep


def cograph_instance(n: int, seed: int) -> Graph:
    """Random connected cograph from a random cotree with union/join
    internal nodes; the root is a join."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    leaves = list(range(n))
    rng.shuffle(leaves)
    edges: list[tuple[int, int]] = []

    def build(vs: list[int], force_join: bool) -> None:
        if len(vs) == 1:
            return
        cut = rng.randint(1, len(vs) - 1)
        left, right = vs[:cut], vs[cut:]
        join = True if force_join else rng.random() < 0.5
        if join:
            edges.extend((a, b) for a in left for b in right)
        build(left, False)
        build(right, False)

    build(leaves, True)
    return Graph.from_edges(n, edges)


def split_instance(n: int, seed: int, unique: bool = False) -> Graph:
    """Random split graph: clique C plus independent set S with random
    S-to-C edges.

    With ``unique`` (n even) the graph has a unique perfect matching:
    C is c_1..c_k plus 0 or 2 more vertices, and s_i in S sees c_i and
    a random subset of c_1..c_{i-1}.  So s_1 is pendant, and the
    forced-pair peel matches each s_i to c_i in turn, then pairs the
    two extra clique vertices.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if unique and n % 2:
        raise ValueError("unique-PM instances need even n")
    rng = random.Random(seed)
    if unique:
        c_size = rng.choice([n // 2, n // 2 + 1])
    else:
        c_size = rng.randint(1, n)
    clique = list(range(c_size))
    indep = list(range(c_size, n))
    edges = [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    for i, s in enumerate(indep):
        if unique:
            edges.append((s, clique[i]))
            edges.extend((s, c) for c in rng.sample(clique[:i], rng.randint(0, i)))
        else:
            edges.extend((s, c) for c in rng.sample(clique, rng.randint(0, c_size)))
    return Graph.from_edges(n, edges)


def interval_instance(n: int, seed: int) -> IntervalRep:
    """Random intervals with globally distinct integer endpoints."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = random.Random(seed)
    points = rng.sample(range(1, 6 * n + 2), 2 * n) if n else []
    rng.shuffle(points)
    intervals = []
    for v in range(n):
        a, b = points[2 * v], points[2 * v + 1]
        intervals.append((a, b) if a < b else (b, a))
    return IntervalRep(tuple(intervals))


def clique_chain(k: int) -> tuple[Graph, tuple[Step, ...]]:
    """Chain of k pendant-path attachments, each at the previous fresh pair.

    Starting from one edge, every step adds x adjacent to the previous
    {x, y} pair plus a pendant y; the previous pair is a valid clique
    whose members' outside neighborhoods are cliques, so the trace
    replays cleanly.  n = 2k + 2, m = 3k + 1; the densest repeating
    pattern the pendant-path operation admits (any clique containing a
    vertex with a pendant partner must swallow its whole non-pendant
    neighborhood, which caps reusable cliques at the fresh pair).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    # the edges are distinct by construction, so the adjacency lists are
    # filled directly, one append at a time in the order Graph.from_edges
    # would make them (so each list also gets the same capacity)
    g = Graph(2 * k + 2)
    adj = g.adjacency
    adj[0].append(1)
    adj[1].append(0)
    steps: list[Step] = [InitStep(0, 1)]
    for t in range(1, k + 1):
        x, y = 2 * t, 2 * t + 1
        px, py = 2 * t - 2, 2 * t - 1
        ax = adj[x]
        ax.append(px)
        adj[px].append(x)
        ax.append(py)
        adj[py].append(x)
        ax.append(y)
        adj[y].append(x)
        steps.append(Op2Step((px, py), x, y))
    return g, tuple(steps)
