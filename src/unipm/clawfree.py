"""Greedy perfect matching for connected claw-free graphs of even order.

The path grows by end-extensions and swap-extensions until neither
applies; the last path edge then belongs to some perfect matching, is
committed, and its endpoints are removed.  Monotone per-vertex neighbor
cursors make the whole run O(n + m): every adjacency list is traversed
at most once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, Matching, is_connected


@dataclass
class PmincfStats:
    """Operation counters for the linearity checks."""

    cursor_advances: int = 0
    lm_nb_updates: int = 0
    reseeds: int = 0
    commits: int = 0
    edge_count: int = 0


def pmincf(g: Graph, stats: PmincfStats | None = None,
           debug_checks: bool = False,
           check_connectivity: bool = False) -> Matching:
    """Perfect matching of a connected claw-free graph of even live order.

    Claw-freeness and connectivity are promises of the caller; a claw
    is never checked here.  Raises ValueError on odd live order (before
    starting) and names the stranded vertex ("the input is disconnected
    or not claw-free") if a promise fails in a way the matcher detects.
    Raises RuntimeError if the cursors advance past the live list
    lengths.  The caller's graph is not mutated.  ``stats`` gets the
    counters of a run that raises too.

    ``debug_checks`` asserts, at every commit, that the path admits
    neither extension and that the lm_nb cache matches a direct
    recomputation (O(deg) per commit).  ``check_connectivity``
    additionally asserts the live graph stays connected after each
    removal (O(n + m) per commit; test scale only).
    """
    adj = g.adjacency
    live = g.live_count
    if live % 2:
        raise ValueError("odd number of live vertices")
    n = len(adj)
    removed = bytearray(g.removed)
    # cursors step over dead entries too, so the advances are bounded by
    # the list lengths of the live vertices: 2m when none is removed.
    # The edge count is O(n), so it is read once, and only if needed.
    edges = g.edge_count if live == n or stats is not None else 0
    bound = 2 * edges if live == n else sum(
        len(adj[u]) for u in range(n) if not removed[u])
    cursor = [0] * n
    pos = [-1] * n
    lm_nb = [-1] * n
    path: list[int] = []
    pairs: list[tuple[int, int]] = []
    advances = 0
    lm_updates = 0
    reseeds = 0
    lowest = 0  # monotone pointer to the lowest-id live vertex
    if check_connectivity:
        shell = g.view()  # follows the commits' removals

    try:
        while live >= 2:
            if not path:
                # reseed; the end-extension finds the seed's first neighbor
                while lowest < n and removed[lowest]:
                    lowest += 1
                path = [lowest]
                pos[lowest] = 0
                reseeds += 1

            while True:
                uk = path[-1]
                # end-extension: first cursor-scanned live off-path neighbor
                nbrs = adj[uk]
                cu = cursor[uk]
                end = len(nbrs)
                v = -1
                while cu < end:
                    w = nbrs[cu]
                    if removed[w] or pos[w] >= 0:
                        cu += 1
                        advances += 1
                    else:
                        v = w
                        break
                cursor[uk] = cu
                if v >= 0:
                    pos[v] = len(path)
                    path.append(v)
                    continue
                k = len(path)
                if k == 1:
                    # a lone path vertex with no live neighbor left
                    raise ValueError(
                        f"vertex {uk} is stranded: the input is "
                        "disconnected or not claw-free")
                if lm_nb[uk] == -1:
                    # first computation: O(deg) via path positions
                    hits = set()
                    for w in nbrs:
                        lm_updates += 1
                        if not removed[w] and pos[w] >= 0:
                            hits.add(pos[w])
                    run = 0
                    while k - 2 - run >= 0 and (k - 2 - run) in hits:
                        run += 1
                    lm_nb[uk] = run
                if lm_nb[uk] >= 2:
                    um = path[-2]
                    nbrs = adj[um]
                    cu = cursor[um]
                    end = len(nbrs)
                    v = -1
                    while cu < end:
                        w = nbrs[cu]
                        if removed[w] or pos[w] >= 0:
                            cu += 1
                            advances += 1
                        else:
                            v = w
                            break
                    cursor[um] = cu
                    if v >= 0:
                        # swap-extension: ... u_{k-2} u_k u_{k-1} v
                        lm_nb[uk] -= 1
                        lm_updates += 1
                        if lm_nb[um] != -1:
                            lm_nb[um] += 1
                            lm_updates += 1
                        path[-2] = uk
                        path[-1] = um
                        pos[uk] = k - 2
                        pos[um] = k - 1
                        pos[v] = k
                        path.append(v)
                        continue
                break

            if debug_checks:
                _assert_no_extension(adj, removed, pos, lm_nb, path)
            b = path.pop()
            a = path.pop()
            pairs.append((a, b))
            pos[a] = -1
            pos[b] = -1
            removed[a] = 1
            removed[b] = 1
            live -= 2
            if check_connectivity:
                shell.remove_vertex(a)
                shell.remove_vertex(b)
                assert is_connected(shell), \
                    "live graph disconnected after commit"
    finally:
        # a run that raises still reports the work it did
        if stats is not None:
            stats.cursor_advances += advances
            stats.lm_nb_updates += lm_updates
            stats.reseeds += reseeds
            stats.commits += len(pairs)
            stats.edge_count += edges
    if advances > bound:
        raise RuntimeError("cursor advances exceed the live list lengths")
    return Matching(pairs)


def _assert_no_extension(adj, removed, pos, lm_nb, path) -> None:
    """Commit-time invariant: neither extension is available."""
    b = path[-1]
    a = path[-2]
    k = len(path)
    for w in adj[b]:
        assert removed[w] or pos[w] >= 0, \
            f"end-extension {b}->{w} available at commit"
    # direct lm_nb recomputation for the last vertex
    bset = set(adj[b])
    run = 0
    while run < k - 1 and path[k - 2 - run] in bset:
        run += 1
    assert lm_nb[b] == run, f"lm_nb cache {lm_nb[b]} != direct {run}"
    if run >= 2:
        for w in adj[a]:
            assert removed[w] or pos[w] >= 0, \
                f"swap-extension via {a}->{w} available at commit"
