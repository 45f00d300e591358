"""Forcing-set elimination: iterated degree-1 removal.

Succeeds iff some ordered vertex set forces a unique perfect matching.
On cographs and split graphs success is equivalent to the graph having
a unique perfect matching; on arbitrary graphs it is sufficient but not
necessary.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import Graph, Matching


@dataclass(frozen=True)
class ForcingCertificate:
    """Elimination order (u_i, v_i) plus the matching it forces.

    After deleting the closed neighborhoods of u_1..u_{i-1}, vertex u_i
    has degree exactly 1 and v_i is its sole remaining neighbor.
    """

    forced: tuple[tuple[int, int], ...]
    matching: Matching


def find_forcing_set(g: Graph) -> ForcingCertificate | None:
    """Certificate iff some set forces a unique perfect matching in g.

    Maintains live degrees and a worklist of degree-1 vertices;
    repeatedly pops the lowest-id degree-1 vertex u, records (u, its
    sole neighbor v), removes both, and pushes neighbors whose degree
    drops to 1.  Succeeds iff the graph empties.  Odd order or a
    stranded vertex returns None.
    """
    n = g.n_total
    adj = g.adjacency
    alive = [not r for r in g.removed]
    remaining = g.live_count
    if remaining % 2:
        return None
    deg = [0] * n
    for u in range(n):
        if alive[u]:
            deg[u] = sum(map(alive.__getitem__, adj[u]))
    heap = [u for u in range(n) if deg[u] == 1]  # removed vertices have 0
    heapq.heapify(heap)
    forced: list[tuple[int, int]] = []
    while heap:
        u = heapq.heappop(heap)
        if not alive[u] or deg[u] != 1:
            continue  # stale entry
        for v in adj[u]:
            if alive[v]:
                break
        forced.append((u, v))
        alive[u] = False
        alive[v] = False
        remaining -= 2
        for z in adj[u] + adj[v]:
            if alive[z]:
                deg[z] -= 1
                if deg[z] == 1:
                    heapq.heappush(heap, z)
    if remaining != 0:
        return None
    return ForcingCertificate(tuple(forced), Matching(forced))

