"""Ground truth computed by the benchmark itself, independent of unipm.

Nothing here imports the library: the edge sets the benchmark writes are
the reference, and every verdict the CLI prints is judged against them.
Graphs are (n, edges) with edges a set of (u, v) pairs, u < v.
"""

from __future__ import annotations

from itertools import combinations


def norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def graph_text(n: int, edges) -> str:
    """The CLI's edge-list format: header "n m", then one "u v" per edge."""
    ordered = sorted(edges)
    return f"{n} {len(ordered)}\n" + "".join(f"{u} {v}\n" for u, v in ordered)


def parse_graph_text(text: str) -> tuple[int, set[tuple[int, int]]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n, m = int(lines[0][0]), int(lines[0][1])
    edges = {norm(int(a), int(b)) for a, b in lines[1:]}
    if len(lines) - 1 != m or len(edges) != m:
        raise ValueError("edge count does not match header")
    return n, edges


def is_connected(n: int, adj: list[set[int]]) -> bool:
    if n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def claw_at(adj: list[set[int]], center: int) -> bool:
    """True iff center has three pairwise non-adjacent neighbours."""
    for a, b, c in combinations(sorted(adj[center]), 3):
        if b not in adj[a] and c not in adj[a] and c not in adj[b]:
            return True
    return False


def has_claw(adj: list[set[int]]) -> bool:
    return any(claw_at(adj, u) for u in range(len(adj)))


def forcing_decides(n: int, adj: list[set[int]]) -> bool:
    """True iff repeatedly matching a degree-1 vertex to its neighbour empties the graph."""
    deg = [len(a) for a in adj]
    alive = [True] * n
    stack = [u for u in range(n) if deg[u] == 1]
    remaining = n
    while stack:
        u = stack.pop()
        if not alive[u] or deg[u] != 1:
            continue
        v = next(w for w in adj[u] if alive[w])
        for gone in (u, v):
            alive[gone] = False
            remaining -= 1
            for z in adj[gone]:
                if alive[z]:
                    deg[z] -= 1
                    if deg[z] == 1:
                        stack.append(z)
    return remaining == 0


def count_pms(n: int, adj: list[set[int]], cap: int = 2) -> tuple[int, list[tuple[int, int]] | None]:
    """Perfect matchings counted up to cap by bitmask backtracking; and the first one found."""
    nbr = [sum(1 << w for w in adj[u]) for u in range(n)]
    full = (1 << n) - 1
    first: list[tuple[int, int]] | None = None
    chosen: list[tuple[int, int]] = []
    count = 0

    def walk(free: int) -> None:
        nonlocal count, first
        if count >= cap:
            return
        if free == 0:
            count += 1
            if first is None:
                first = list(chosen)
            return
        u = (free & -free).bit_length() - 1
        options = nbr[u] & free
        while options and count < cap:
            bit = options & -options
            options ^= bit
            v = bit.bit_length() - 1
            chosen.append((u, v))
            walk(free & ~(1 << u) & ~bit)
            chosen.pop()

    if n % 2 == 0:
        walk(full)
    return count, first


def is_perfect_matching(n: int, edges, pairs) -> bool:
    covered: set[int] = set()
    for u, v in pairs:
        if norm(u, v) not in edges or u in covered or v in covered:
            return False
        covered.update((u, v))
    return len(covered) == n


def completes_to_perfect(vertices: set[int], adj: list[set[int]], seeds) -> bool:
    """True iff the subgraph induced by vertices has a perfect matching.

    Starts from the seed matching whose restriction to the vertex set
    covers the most vertices and grows it with Edmonds augmenting paths,
    one search per exposed vertex.
    """
    order = sorted(vertices)
    index = {v: i for i, v in enumerate(order)}
    k = len(order)
    if k % 2:
        return False
    nbrs = [[index[w] for w in adj[v] if w in index] for v in order]
    match = [-1] * k
    for pairs in seeds:
        candidate = [-1] * k
        for u, v in pairs:
            if u in index and v in index:
                candidate[index[u]] = index[v]
                candidate[index[v]] = index[u]
        if candidate.count(-1) < match.count(-1):
            match = candidate
    for root in range(k):
        if match[root] == -1:
            end, parent = _augmenting_search(nbrs, match, root)
            if end == -1:
                return False
            v = end
            while v != -1:
                pv = parent[v]
                nxt = match[pv]
                match[v], match[pv] = pv, v
                v = nxt
    return True


def _augmenting_search(nbrs: list[list[int]], match: list[int],
                       root: int) -> tuple[int, list[int]]:
    """Edmonds' search from an exposed root; returns (exposed end or -1, parent links)."""
    k = len(nbrs)
    parent = [-1] * k
    base = list(range(k))
    in_queue = [False] * k
    in_queue[root] = True
    queue = [root]
    head = 0

    def common_base(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[match[b]]

    def mark(v: int, b: int, child: int, in_blossom: set[int]) -> None:
        while base[v] != b:
            in_blossom.add(base[v])
            in_blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while head < len(queue):
        v = queue[head]
        head += 1
        for to in nbrs[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                b = common_base(v, to)
                in_blossom: set[int] = set()
                mark(v, b, to, in_blossom)
                mark(to, b, v, in_blossom)
                for i in range(k):
                    if base[i] in in_blossom:
                        base[i] = b
                        if not in_queue[i]:
                            in_queue[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    return to, parent
                in_queue[match[to]] = True
                queue.append(match[to])
    return -1, parent


def witness_problem(n: int, edges, adj: list[set[int]], cycle: list[int],
                    known_pms) -> str | None:
    """Why cycle does not prove a second perfect matching, or None if it does.

    A valid witness is a closed simple even cycle of graph edges whose
    complement has a perfect matching: the complement's matching plus
    either half of the cycle's edges gives two distinct perfect matchings.
    """
    if len(cycle) < 5 or cycle[0] != cycle[-1]:
        return "witness is not a closed cycle of length >= 4"
    ring = cycle[:-1]
    if len(set(ring)) != len(ring) or len(ring) % 2:
        return "witness is not a simple even cycle"
    if any(not 0 <= v < n for v in ring):
        return "witness names a vertex outside the graph"
    for a, b in zip(cycle, cycle[1:]):
        if norm(a, b) not in edges:
            return f"witness edge {a}-{b} is not in the graph"
    rest = set(range(n)) - set(ring)
    if not completes_to_perfect(rest, adj, known_pms):
        return "graph minus the witness cycle has no perfect matching"
    return None


def parse_trace_text(text: str) -> list[tuple]:
    """Steps as ("INIT", u, v), ("OP1", u, x, y) or ("OP2", x, y, clique)."""
    steps: list[tuple] = []
    for raw in text.splitlines():
        parts = raw.split()
        if not parts:
            continue
        nums = [int(p) for p in parts[1:]]
        if parts[0] == "INIT" and len(nums) == 2:
            steps.append(("INIT", nums[0], nums[1]))
        elif parts[0] == "OP1" and len(nums) == 3:
            steps.append(("OP1", nums[0], nums[1], nums[2]))
        elif parts[0] == "OP2" and len(nums) >= 3:
            steps.append(("OP2", nums[0], nums[1], tuple(nums[2:])))
        else:
            raise ValueError(f"malformed trace line {raw!r}")
    return steps


def _is_clique(adj, vs) -> bool:
    vs = list(vs)
    return all(b in adj[a] for i, a in enumerate(vs) for b in vs[i + 1:])


def rebuild(steps) -> tuple[int, set[tuple[int, int]]]:
    """(n, edges) built by a construction trace; ValueError names a broken step.

    Replays the two operations on the benchmark's own adjacency sets and
    checks each precondition: a triangle is attached at a simplicial
    vertex, a pendant path at a non-empty clique whose members each have
    a clique as outside neighbourhood, and fresh vertices are new.
    """
    if not steps or steps[0][0] != "INIT":
        raise ValueError("trace does not start with INIT")
    adj: dict[int, set[int]] = {}
    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)
        edges.add(norm(u, v))

    for i, s in enumerate(steps):
        if i and s[0] == "INIT":
            raise ValueError(f"step {i}: INIT after the first step")
        fresh = (s[1], s[2]) if s[0] in ("INIT", "OP2") else (s[2], s[3])
        if fresh[0] == fresh[1] or any(v in adj or v < 0 for v in fresh):
            raise ValueError(f"step {i}: vertices {fresh} are not fresh")
        if s[0] == "OP1":
            if s[1] not in adj or not _is_clique(adj, adj[s[1]]):
                raise ValueError(f"step {i}: {s[1]} is absent or not simplicial")
        elif s[0] == "OP2":
            clique = s[3]
            if not clique or len(set(clique)) != len(clique) or any(c not in adj for c in clique):
                raise ValueError(f"step {i}: clique {clique} is empty, repeated or absent")
            if not _is_clique(adj, clique):
                raise ValueError(f"step {i}: {clique} is not a clique")
            cset = set(clique)
            if not all(_is_clique(adj, adj[c] - cset) for c in clique):
                raise ValueError(f"step {i}: a clique member's outside neighbourhood is not a clique")
        for v in fresh:
            adj[v] = set()
        if s[0] == "INIT":
            add(s[1], s[2])
        elif s[0] == "OP1":
            add(s[2], s[3])
            add(s[2], s[1])
            add(s[3], s[1])
        else:
            add(s[1], s[2])
            for c in s[3]:
                add(s[1], c)
    if set(adj) != set(range(len(adj))):
        raise ValueError("trace vertex ids are not 0..n-1")
    return len(adj), edges


def trace_problem(n: int, edges, steps) -> str | None:
    """Why the construction trace does not build exactly (n, edges), or None."""
    try:
        built_n, built = rebuild(steps)
    except ValueError as exc:
        return str(exc)
    if built_n != n or built != edges:
        return "trace does not rebuild the graph"
    return None


def trace_matching(steps) -> set[tuple[int, int]]:
    """The perfect matching a construction implies: the INIT edge and every fresh pair."""
    return {norm(s[1], s[2]) if s[0] in ("INIT", "OP2") else norm(s[2], s[3])
            for s in steps}


def interval_edges(intervals) -> set[tuple[int, int]]:
    """Intersection graph of closed intervals with distinct endpoints, by a sweep."""
    events = []
    for v, (lo, hi) in enumerate(intervals):
        events.append((lo, 0, v))
        events.append((hi, 1, v))
    events.sort()
    active: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for _, closing, v in events:
        if closing:
            active.discard(v)
        else:
            edges.update(norm(v, w) for w in active)
            active.add(v)
    return edges
