"""Forced pairs: edges that lie in every perfect matching.

``_forced_pairs`` is the package's one elimination of them, the peel
that ``check``, ``decompose`` and the uniqueness verifier run.  Bounded
to pendant vertices it is degree-1 forcing (``find_forcing_set``): on
cographs and split graphs it succeeds iff the graph has a unique
perfect matching; on arbitrary graphs success is sufficient but not
necessary.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

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

    Runs the peel on pendants only, on a view of g, and records
    (pendant, its neighbour) in the peel's FIFO order; O(n + m).  Any
    order succeeds iff this one does: an emptying order proves g's
    matching unique, so a stalled order's remainder is a union of the
    matching's pairs, and the emptying order's first pair inside it is
    a pendant there.  Odd order or a stranded vertex returns None.
    """
    work = g.view()
    forced = [(y, x) for x, y, _ in _forced_pairs(work, 1)]
    if work.live_count:
        return None
    return ForcingCertificate(tuple(forced), Matching(forced))


def _forced_pairs(g: Graph, bound: int = 2) -> Iterator[tuple[int, int, int]]:
    """Delete pairs of g that lie in every perfect matching, one at a time.

    A pair x-y is forced when y is a pendant at x, or when x and y are
    adjacent vertices of live degree 2 whose other neighbours are one
    vertex u (a pendant triangle: y matched to u would strand x).  The
    two shapes undo the clique and the simplicial operation of the
    paper's class.  Each pair is removed from g (run it on a ``view`` to
    keep g), with exact ``live_count`` and ``edge_count``, and then
    yielded as (x, y, u), with u == -1 for a pendant and x < y for a
    triangle; the caller may read g before resuming.  A vertex is queued
    (FIFO) whenever its live degree drops to ``bound`` or less and its
    shape is read when it is popped, so it is queued at most three times
    and the whole peel is O(n + m).  With ``bound`` 1 no vertex of
    degree 2 is popped, so only pendants are deleted: degree-1 forcing.
    """
    adj, dead = g.adjacency, g.removed
    if True in dead:
        degree = [0 if d else sum(not dead[w] for w in nbrs)
                  for nbrs, d in zip(adj, dead)]
    else:
        degree = list(map(len, adj))
    queue = deque(v for v, d in enumerate(degree) if d <= bound and not dead[v])
    pop, push = queue.popleft, queue.append
    while queue:
        v = pop()
        if dead[v]:
            continue
        d = degree[v]
        nbrs = adj[v]
        if len(nbrs) != d:  # some neighbour is deleted
            nbrs = [w for w in nbrs if not dead[w]]
        if d == 1:
            x, y, u = nbrs[0], v, -1
        elif d == 2:
            a, b = nbrs
            if degree[a] == 2 and b in adj[a]:
                u = b
            elif degree[b] == 2 and a in adj[b]:
                a, u = b, a
            else:
                continue
            x, y = (v, a) if v < a else (a, v)
        else:
            continue
        dead[x] = dead[y] = True
        # a pendant y has no live neighbour left, so the pair takes x's
        # live edges; in a triangle, u was the only other live neighbour
        # of x and of y
        if u == -1:
            g.edge_count -= degree[x]
            for w in adj[x]:
                if not dead[w]:
                    degree[w] -= 1
                    if degree[w] <= bound:
                        push(w)
        else:
            g.edge_count -= 3
            degree[u] -= 2
            if degree[u] <= 2:
                push(u)
        g.live_count -= 2
        yield x, y, u
