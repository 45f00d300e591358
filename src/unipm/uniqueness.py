"""Ground-truth oracle and the uniqueness verifiers.

``enumerate_pms`` is the exhaustive backtracking oracle for small
graphs.  ``is_unique_pm`` decides uniqueness of a given perfect
matching, returning an alternating cycle when it is not unique;
``kotzig_peel`` is the plain matched-bridge peel it is tested against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import Graph, Matching, find_bridges


@dataclass(frozen=True)
class AlternatingCycleWitness:
    """Closed even cycle alternating matched/unmatched edges.

    ``cycle`` lists vertices with the first repeated at the end; the
    first edge is matched.  Swapping its edge set against the matching
    yields a second perfect matching.
    """

    cycle: tuple[int, ...]

    def swapped(self, m: Matching) -> Matching:
        """The second perfect matching obtained by swapping along the cycle."""
        pairs = {p for p in m.pairs}
        verts = self.cycle
        for i in range(len(verts) - 1):
            a, b = verts[i], verts[i + 1]
            key = (a, b) if a < b else (b, a)
            if key in pairs:
                pairs.discard(key)
            else:
                pairs.add(key)
        return Matching(pairs)


def enumerate_pms(g: Graph, cap: int) -> list[Matching]:
    """Up to ``cap`` distinct perfect matchings by exhaustive backtracking.

    Matches the lowest-id unmatched vertex to each live neighbor in
    neighbor-list order, so the output order is deterministic.  Odd
    live order yields the empty list; intended for live_count <= ~16.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    live = sorted(g.live_vertices())
    if len(live) % 2:
        return []
    removed = g.removed
    unmatched = set(live)
    chosen: list[tuple[int, int]] = []
    found: list[Matching] = []

    def backtrack() -> bool:
        if not unmatched:
            found.append(Matching(chosen))
            return len(found) >= cap
        u = min(unmatched)
        unmatched.discard(u)
        for v in g.adjacency[u]:
            if removed[v] or v not in unmatched:
                continue
            unmatched.discard(v)
            chosen.append((u, v))
            if backtrack():
                return True
            chosen.pop()
            unmatched.add(v)
        unmatched.add(u)
        return False

    backtrack()
    return found


def verify_pm(g: Graph, m: Matching) -> bool:
    """True iff m's pairs are live edges, disjoint, and cover every live vertex."""
    covered = 0
    for u, v in m.pairs:
        if not (g.is_live(u) and g.is_live(v) and g.has_edge(u, v)):
            return False
        covered += 2
    return covered == g.live_count


def _canonical_cycle(open_cycle: list[int], partner: dict[int, int]) -> tuple[int, ...]:
    """Rotate/orient a simple alternating cycle into canonical form.

    Starts at the minimum vertex, second vertex is its matched partner,
    first vertex repeated at the end.
    """
    i = open_cycle.index(min(open_cycle))
    rotated = open_cycle[i:] + open_cycle[:i]
    if rotated[1] != partner[rotated[0]]:
        rotated = [rotated[0]] + rotated[:0:-1]
    if rotated[1] != partner[rotated[0]]:
        raise RuntimeError("cycle does not alternate from its minimum vertex")
    return tuple(rotated + [rotated[0]])


def _directed_cycle(out: list[list[int]], order: list[int]) -> list[int] | None:
    """Some directed cycle (vertex list, arc order) via iterative DFS, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(out)
    for s in order:
        if color[s] != WHITE:
            continue
        color[s] = GRAY
        path = [s]
        stack = [(s, iter(out[s]))]
        while stack:
            u, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == GRAY:
                    return path[path.index(w):]
                if color[w] == WHITE:
                    color[w] = GRAY
                    path.append(w)
                    stack.append((w, iter(out[w])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                path.pop()
                color[u] = BLACK
    return None


def _augmenting_path(adj: list[list[int]], match: list[int], root: int,
                     banned: tuple[int, int]) -> list[int] | None:
    """One phase of blossom-contracted alternating BFS from an exposed root.

    ``adj``/``match`` use compact local ids; the edge ``banned`` is
    ignored in both directions.  Returns the augmenting path (root to
    the other exposed vertex) as a vertex list, or None.
    """
    n = len(adj)
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    q = deque([root])
    ba, bb = banned

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    while q:
        v = q.popleft()
        for to in adj[v]:
            if (v == ba and to == bb) or (v == bb and to == ba):
                continue
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                # to is an even vertex: an odd cycle (blossom) closes
                curbase = lca(v, to)
                blossom = [False] * n
                mark_path(v, curbase, to, blossom)
                mark_path(to, curbase, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            q.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    # exposed: rebuild the augmenting path back to root
                    path = [to]
                    w = to
                    while True:
                        pw = p[w]
                        path.append(pw)
                        if match[pw] == -1:
                            break
                        w = match[pw]
                        path.append(w)
                    path.reverse()
                    return path
                used[match[to]] = True
                q.append(match[to])
    return None


def is_unique_pm(g: Graph, m: Matching) -> AlternatingCycleWitness | None:
    """None iff m is the unique perfect matching of g; else a witness cycle.

    Fast path: the digraph with arcs x -> partner(y) and y -> partner(x)
    for every non-matching live edge {x, y}.  Acyclic implies unique; a
    directed cycle whose states hit no matched pair expands directly to
    an alternating cycle.  A cycle that does contain both endpoints of a
    matched pair is inconclusive (odd "flower" structures produce them
    even for unique matchings), so the decision falls back to peeling
    matched bridges, all of a round's at once; if the peel stalls, an
    exact augmenting-path search on the remainder finds the witness.
    Raises RuntimeError if that search finds none, which Kotzig's
    theorem rules out.
    """
    if not verify_pm(g, m):
        raise ValueError("matching is not a perfect matching of the graph")
    n = g.n_total
    partner = m.partner
    removed = g.removed
    out: list[list[int]] = [[] for _ in range(n)]
    live = [u for u in range(n) if not removed[u]]
    for u in live:
        pu = partner[u]
        for v in g.adjacency[u]:
            if v > u and not removed[v] and pu != v:
                out[u].append(partner[v])
                out[v].append(pu)

    cycle = _directed_cycle(out, live)
    if cycle is None:
        return None

    states = set(cycle)
    if not any(partner[x] in states for x in cycle):
        # expansion x1, partner(x2), x2, ..., xt, partner(x1), x1 is simple
        walk: list[int] = []
        t = len(cycle)
        for i in range(t):
            walk.append(cycle[i])
            walk.append(partner[cycle[(i + 1) % t]])
        return AlternatingCycleWitness(_canonical_cycle(walk, partner))

    # Degenerate cycle: peel matched bridges, then search what is left.
    # A bridge lies on no cycle, so a matched bridge belongs to every
    # perfect matching and deleting its endpoints keeps the verdict.  A
    # round deletes every matched bridge at once: deleting vertices never
    # creates a cycle, so the other bridges of the round stay on none.
    work = g.copy()
    peeled = work.removed
    while work.live_count:
        peel = [(u, v) for u, v in find_bridges(work) if partner[u] == v]
        if not peel:
            break
        for u, v in peel:
            work.remove_vertex(u)
            work.remove_vertex(v)
    if not work.live_count:
        return None

    # Kotzig: a connected graph with a unique perfect matching has a
    # matched bridge, so the stalled remainder has an alternating cycle
    # and the exact search below must find it through some pair.
    rest = list(work.live_vertices())
    idx = {u: i for i, u in enumerate(rest)}
    local_adj = [[idx[v] for v in g.adjacency[u] if not peeled[v]] for u in rest]
    base_match = [idx[partner[u]] for u in rest]
    for u, v in m.pairs:
        if peeled[u]:
            continue
        iu, iv = idx[u], idx[v]
        match = list(base_match)
        match[iu] = match[iv] = -1
        path = _augmenting_path(local_adj, match, iu, (iu, iv))
        if path is not None:
            open_cycle = [rest[i] for i in path]
            return AlternatingCycleWitness(_canonical_cycle(open_cycle, partner))
    raise RuntimeError("matched-bridge peel stalled but no alternating cycle found")


def kotzig_peel(g: Graph, m: Matching) -> bool:
    """True iff repeatedly deleting endpoints of matched bridges empties g.

    Equivalent to uniqueness of m: a matched bridge lies on no cycle,
    hence belongs to every perfect matching; a nonempty stage with no
    matched bridge certifies a second matching exists.  Deletes one
    bridge per round and recomputes bridges each time (O(n*m) worst
    case); the reference the tests compare is_unique_pm against, whose
    fallback runs the same peel a whole round at a time.
    """
    if not verify_pm(g, m):
        raise ValueError("matching is not a perfect matching of the graph")
    work = g.copy()
    partner = m.partner
    while work.live_count > 0:
        found = None
        for u, v in sorted(find_bridges(work)):
            if partner.get(u) == v:
                found = (u, v)
                break
        if found is None:
            return False
        work.remove_vertex(found[0])
        work.remove_vertex(found[1])
    return True
