"""Ground-truth oracle and the uniqueness verifiers.

``enumerate_pms`` is the exhaustive backtracking oracle for small
graphs.  ``is_unique_pm`` decides uniqueness of a given perfect
matching, returning an alternating cycle when it is not unique;
``kotzig_peel`` is the plain matched-bridge peel it is tested against.
``maximum_matching`` finds a matching when no class-specific method
does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .forcing import _forced_pairs
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
        c = self.cycle
        edges = {(a, b) if a < b else (b, a) for a, b in zip(c, c[1:])}
        return Matching(set(m.pairs) ^ edges)


def enumerate_pms(g: Graph, cap: int) -> list[Matching]:
    """Up to ``cap`` distinct perfect matchings by exhaustive backtracking.

    Matches the lowest-id unmatched vertex to each live neighbor in
    neighbor-list order, so the output order is deterministic.  Odd
    live order yields the empty list; intended for live_count <= ~16.
    The search keeps its own stack, so a deep graph (a long path) needs
    no recursion.
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
    # frames[i] is (u, cursor over u's list) for the i-th matched vertex;
    # chosen[i] is its current pair, absent while the cursor advances
    frames: list[tuple[int, Iterator[int]]] = []
    while True:
        if unmatched:
            u = min(unmatched)
            unmatched.discard(u)
            frames.append((u, iter(g.adjacency[u])))
        else:
            found.append(Matching(chosen))
            if len(found) >= cap:
                return found
        while frames:
            u, it = frames[-1]
            if len(chosen) == len(frames):
                unmatched.add(chosen.pop()[1])
            for v in it:
                if not removed[v] and v in unmatched:
                    unmatched.discard(v)
                    chosen.append((u, v))
                    break
            else:
                frames.pop()
                unmatched.add(u)
                continue
            break
        else:
            return found


def verify_pm(g: Graph, m: Matching) -> bool:
    """True iff m's pairs are live edges, disjoint, and cover every live vertex."""
    n = g.n_total
    for u, v in m.pairs:
        if not (0 <= u < n and 0 <= v < n and g.has_edge(u, v)):
            return False
    return 2 * len(m.pairs) == g.live_count


def _canonical_cycle(open_cycle: list[int],
                     partner: Mapping[int, int] | Sequence[int]) -> tuple[int, ...]:
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


def _clean_cycle(adj: list[list[int]], removed: Sequence[bool],
                 partner: list[int]) -> tuple[list[int] | None, bool]:
    """First directed cycle holding no vertex together with its partner.

    The digraph has an arc x -> partner(y) for every live neighbour y
    of x other than partner(x); the DFS reads these arcs off ``adj[x]``
    as it goes.  It judges every back arc x -> w in O(1): ``pos`` is
    each on-stack state's stack position, and ``low[d]`` is the largest
    lower position of a vertex-partner pair with both states among the
    first d + 1 on the stack.  The stack segment from w to x holds such
    a pair iff ``low`` at x's position is at least w's.  Returns
    (states of the first clean segment, True), or (None, whether the
    DFS saw any back arc, i.e. whether the digraph is cyclic).
    """
    FINISHED = -2
    pos = [-1] * len(adj)
    cyclic = False
    for s in range(len(adj)):
        if removed[s] or pos[s] != -1:
            continue
        pos[s] = 0
        path = [s]
        low = [-1]
        stack = [iter(adj[s])]
        while stack:
            px = partner[path[-1]]
            for y in stack[-1]:
                if removed[y] or y == px:
                    continue
                w = partner[y]
                pw = pos[w]
                if pw == -1:
                    # w's partner y, if below on the stack, has position >= 0
                    q = pos[y]
                    top = low[-1]
                    low.append(q if q > top else top)
                    pos[w] = len(path)
                    path.append(w)
                    stack.append(iter(adj[w]))
                    break
                if pw >= 0:
                    if low[-1] < pw:
                        return path[pw:], True
                    cyclic = True
            else:
                stack.pop()
                low.pop()
                pos[path.pop()] = FINISHED
    return None, cyclic


def _augmenting_path(adj: list[list[int]], flagged: Sequence[bool],
                     match: list[int], root: int, banned: tuple[int, int]
                     ) -> tuple[list[int] | None, list[int]]:
    """One phase of blossom-contracted alternating BFS from an exposed root.

    Flagged neighbours are skipped, and the edge ``banned`` is ignored
    in both directions.  Returns the augmenting path (root to the other
    exposed vertex) as a vertex list, or None, together with the
    vertices the search tree reached.  The search keeps state only for
    those vertices, so a search that stops early costs little however
    large the graph is.
    """
    p: dict[int, int] = {}
    base: dict[int, int] = {}  # a vertex missing here is its own base
    used = {root}
    tree = [root]
    q = deque([root])
    ba, bb = banned

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base.get(a, a)
            seen.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base.get(b, b)
            if b in seen:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base.get(v, v) != b:
            mv = match[v]
            blossom.add(base.get(v, v))
            blossom.add(base.get(mv, mv))
            p[v] = child
            child = mv
            v = p[mv]

    while q:
        v = q.popleft()
        for to in adj[v]:
            if flagged[to] or (v == ba and to == bb) or (v == bb and to == ba):
                continue
            if base.get(v, v) == base.get(to, to) or match[v] == to:
                continue
            if to == root or (match[to] != -1 and match[to] in p):
                # to is an even vertex: an odd cycle (blossom) closes
                curbase = lca(v, to)
                blossom: set[int] = set()
                mark_path(v, curbase, to, blossom)
                mark_path(to, curbase, v, blossom)
                grown = []
                for i in tree:
                    if base.get(i, i) in blossom:
                        base[i] = curbase
                        if i not in used:
                            used.add(i)
                            grown.append(i)
                q.extend(sorted(grown))  # id order, as a scan over all ids
            elif to not in p:
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
                    return path, tree
                tree.append(to)
                tree.append(match[to])
                used.add(match[to])
                q.append(match[to])
    return None, tree


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching of the live graph: Edmonds' blossom algorithm.

    A greedy pass matches what it can; then each vertex it left exposed
    roots one blossom BFS, and an augmenting path found there flips.
    An exposed vertex with no augmenting path never gets one later, and
    no later augmenting path enters its failed (Hungarian) tree
    (Edmonds), so one pass over the roots suffices and each failed tree
    is flagged dead for good.  Each BFS can relabel O(n) vertices per
    blossom it contracts: O(n^3) in the worst case.  The result is
    perfect iff the graph has a perfect matching.
    """
    adj = g.adjacency
    dead = list(g.removed)
    match = [-1] * len(adj)
    for u, nbrs in enumerate(adj):
        if match[u] == -1 and not dead[u]:
            for v in nbrs:
                if match[v] == -1 and not dead[v]:
                    match[u], match[v] = v, u
                    break
    for root in range(len(adj)):
        if match[root] == -1 and not dead[root]:
            path, tree = _augmenting_path(adj, dead, match, root, (-1, -1))
            if path is None:
                for u in tree:
                    dead[u] = True
            else:
                for i in range(0, len(path), 2):
                    a, b = path[i], path[i + 1]
                    match[a], match[b] = b, a
    return Matching((u, v) for u, v in enumerate(match) if u < v)


def is_unique_pm(g: Graph, m: Matching) -> AlternatingCycleWitness | None:
    """None iff m is the unique perfect matching of g; else a witness cycle.

    One loop deletes pairs that lie in every perfect matching until the
    graph is empty (unique) or the loop stalls.  Each pass first runs
    ``_forced_pairs``, in O(n + m).  Its two shapes undo the two
    operations of the paper's class, so the first pass empties every
    claw-free graph whose matching is unique.  What it leaves goes to
    the digraph with arcs x -> partner(y) and y -> partner(x) for every
    non-matching live edge {x, y}; a second perfect matching gives a
    directed cycle in it.  One DFS decides most graphs: no back arc
    means acyclic, hence unique, and the first back arc whose cycle
    holds no vertex together with its partner expands directly to an
    alternating cycle.  When every back arc closes such a degenerate
    cycle (odd "flower" structures produce them even for unique
    matchings), one ``find_bridges`` round deletes every matched bridge
    at once and the next pass starts.  The pendant paths and triangles
    a round strands are the next pass's forced pairs, so a chain of
    bridges costs one round, not one per bridge.  If a round finds no
    matched bridge, an exact augmenting-path search on the remainder
    finds the witness.  Raises RuntimeError if that search finds none,
    which Kotzig's theorem rules out.
    """
    if not verify_pm(g, m):
        raise ValueError("matching is not a perfect matching of the graph")
    adj = g.adjacency
    partner = [-1] * len(adj)
    for u, v in m.partner.items():
        partner[u] = v
    # No alternating cycle passes through a pair that is in every perfect
    # matching, so deleting one keeps the verdict.  A unique claw-free
    # graph is emptied by the first peel: each step leaves it claw-free
    # with a unique perfect matching, so each of its components is a
    # class member and holds its last step's x, y.  A bridge lies on no
    # cycle, so a matched bridge is such a pair too, and a round deletes
    # all of them at once: deleting vertices never creates a cycle, so
    # the other bridges of the round stay on none.  Both peels delete
    # from one view of g, which is what find_bridges reads.
    work = g.view()
    dead = work.removed
    while True:
        deque(_forced_pairs(work), maxlen=0)  # run the peel to its end
        if not work.live_count:
            return None
        cycle, cyclic = _clean_cycle(adj, dead, partner)
        if cycle is not None:
            # expansion x1, partner(x2), x2, ..., xt, partner(x1), x1 is simple
            walk: list[int] = []
            t = len(cycle)
            for i in range(t):
                walk.append(cycle[i])
                walk.append(partner[cycle[(i + 1) % t]])
            return AlternatingCycleWitness(_canonical_cycle(walk, partner))
        if not cyclic:
            return None
        peel = [(u, v) for u, v in find_bridges(work) if partner[u] == v]
        if not peel:
            break
        for u, v in peel:
            work.remove_vertex(u)
            work.remove_vertex(v)

    # Kotzig: a connected graph with a unique perfect matching has a
    # matched bridge, so the stalled remainder has an alternating cycle
    # and the exact search below must find it through some pair.
    for u, v in m.pairs:
        if dead[u]:
            continue
        partner[u] = partner[v] = -1
        path, _ = _augmenting_path(adj, dead, partner, u, (u, v))
        partner[u], partner[v] = v, u
        if path is not None:
            return AlternatingCycleWitness(_canonical_cycle(path, partner))
    raise RuntimeError("matched-bridge peel stalled but no alternating cycle found")


def kotzig_peel(g: Graph, m: Matching) -> bool:
    """True iff repeatedly deleting endpoints of matched bridges empties g.

    Equivalent to uniqueness of m: a matched bridge lies on no cycle,
    hence belongs to every perfect matching; a nonempty stage with no
    matched bridge certifies a second matching exists.  Deletes one
    bridge per round and recomputes bridges each time (O(n*m) worst
    case); the reference the tests compare is_unique_pm against, which
    deletes a whole round of matched bridges at once and runs its
    forced-pair peel and DFS between rounds.
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
