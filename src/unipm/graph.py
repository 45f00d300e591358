"""Mutable undirected simple graphs with lazy vertex removal, and the
generic algorithms on them (parsing, claws, components, bridges).

Vertex ids are dense integers assigned at creation and never reused.
Removing a vertex flips a flag; adjacency lists are never physically
edited, so per-vertex neighbor cursors held by callers stay valid
across removals (the amortization the greedy matcher depends on).
"""

from __future__ import annotations

from itertools import combinations, compress
from operator import not_
from typing import Iterable, Iterator, Sequence


# parse_graph allocates a header's n vertices before it reads an edge,
# and replay a trace's before it checks a step, so a larger count is
# refused rather than allowed to exhaust memory.
# Ten times the largest graph the acceptance sweep builds (n = 853,334).
MAX_VERTICES = 10_000_000


class GraphParseError(ValueError):
    """Input text does not match the edge-list format."""


class Graph:
    """Undirected simple graph over dense vertex ids [0, n_total).

    Adjacency lists keep neighbors in insertion order and may mention
    removed vertices; liveness is a parallel flag array, the only record
    of a removal.  ``live_count`` and ``edge_count`` are counted from the
    two, so a flag set by hand counts like ``remove_vertex``.
    """

    __slots__ = ("adjacency", "removed")

    def __init__(self, n: int = 0):
        self.adjacency: list[list[int]] = [[] for _ in range(n)]
        self.removed: list[bool] = [False] * n

    @property
    def n_total(self) -> int:
        return len(self.adjacency)

    @property
    def live_count(self) -> int:
        """Live vertices; O(n), so read it once per call or pass, never
        once per step."""
        return self.removed.count(False)

    @property
    def edge_count(self) -> int:
        """Live edges; O(n) plus the live vertices' list lengths, so read
        it once per call or pass, never once per step."""
        adj, removed = self.adjacency, self.removed
        if self.live_count == len(adj):
            return sum(map(len, adj)) >> 1
        live = compress(adj, map(not_, removed))
        return sum(not removed[w] for nbrs in live for w in nbrs) >> 1

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on n vertices; duplicate edges collapse to one."""
        g = cls(n)
        adj = g.adjacency
        seen: set[int] = set()  # edge {u < v} keyed as u*n + v
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex {max(u, v)} out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = u * n + v if u < v else v * n + u
            if key not in seen:
                seen.add(key)
                adj[u].append(v)
                adj[v].append(u)
        return g

    def view(self) -> "Graph":
        """A graph over the same adjacency lists with its own removal
        flags: removing a vertex from it never reaches self."""
        g = Graph(0)
        g.adjacency = self.adjacency
        g.removed = list(self.removed)
        return g

    def copy(self) -> "Graph":
        g = self.view()
        g.adjacency = [list(a) for a in self.adjacency]
        return g

    def add_vertex(self) -> int:
        """Append a fresh live vertex and return its id."""
        self.adjacency.append([])
        self.removed.append(False)
        return len(self.adjacency) - 1

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (self.is_live(u) and self.is_live(v)):
            raise ValueError(f"edge {u}-{v} touches a removed vertex")
        if v in self.adjacency[u]:
            raise ValueError(f"duplicate edge {u}-{v}")
        self.adjacency[u].append(v)
        self.adjacency[v].append(u)

    def remove_vertex(self, u: int) -> None:
        if self.removed[u]:
            raise ValueError(f"vertex {u} already removed")
        self.removed[u] = True

    def is_live(self, u: int) -> bool:
        return 0 <= u < len(self.adjacency) and not self.removed[u]

    def live_vertices(self) -> Iterator[int]:
        removed = self.removed
        return (u for u in range(len(self.adjacency)) if not removed[u])

    def has_edge(self, u: int, v: int) -> bool:
        if self.removed[u] or self.removed[v]:
            return False
        # scan the shorter list; entries of removed vertices never match v
        a, b = self.adjacency[u], self.adjacency[v]
        if len(b) < len(a):
            a, v = b, u
        return v in a

    def live_edges(self) -> list[tuple[int, int]]:
        """All live edges as (min, max) pairs, sorted."""
        removed = self.removed
        out = []
        for u in range(len(self.adjacency)):
            if removed[u]:
                continue
            for w in self.adjacency[u]:
                if u < w and not removed[w]:
                    out.append((u, w))
        out.sort()
        return out

    def check_symmetry(self) -> None:
        """Debug invariant: adjacency is symmetric and simple."""
        for u, nbrs in enumerate(self.adjacency):
            assert u not in nbrs, f"self-loop at {u}"
            assert len(set(nbrs)) == len(nbrs), f"duplicate neighbor at {u}"
            for w in nbrs:
                assert u in self.adjacency[w], f"asymmetric edge {u}-{w}"

    def __repr__(self) -> str:
        return (f"Graph(n={self.n_total}, live={self.live_count}, "
                f"m={self.edge_count})")


class Matching:
    """Set of vertex-disjoint pairs with a partner lookup.

    Pairs are stored canonically: endpoints sorted within a pair, pairs
    sorted by min endpoint.
    """

    __slots__ = ("pairs", "partner")

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        partner: dict[int, int] = {}
        canon = []
        for u, v in pairs:
            if u == v:
                raise ValueError(f"pair {u}-{v} is degenerate")
            if u in partner or v in partner:
                raise ValueError(f"pair {u}-{v} overlaps another pair")
            partner[u] = v
            partner[v] = u
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        self.pairs: list[tuple[int, int]] = canon
        self.partner: dict[int, int] = partner

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, v = pair
        return self.partner.get(u) == v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(tuple(self.pairs))

    def __repr__(self) -> str:
        return f"Matching({self.pairs})"


def format_matching(m: Matching) -> str:
    """One line "u v" per pair, pairs sorted by min endpoint."""
    return "".join(f"{u} {v}\n" for u, v in m.pairs)


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then m lines "u v".

    Lines starting with '#' and blank lines are skipped.  Vertices are
    0-indexed.  Duplicate edge lines collapse to one edge.  A header
    with more than ``MAX_VERTICES`` vertices is rejected before anything
    is allocated.
    """
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            break
    else:
        raise GraphParseError("missing header")
    if len(parts) != 2:
        raise GraphParseError(f"malformed header at line {lineno}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(f"malformed header at line {lineno}") from None
    if n < 0 or m < 0:
        raise GraphParseError(f"negative count in header at line {lineno}")
    if n > MAX_VERTICES:
        raise GraphParseError(f"{n} vertices in header at line {lineno} "
                              f"exceed the limit of {MAX_VERTICES}")

    g = Graph(n)
    adj = g.adjacency
    seen: set[int] = set()  # edge {u < v} keyed as u*n + v, as in from_edges
    edges_read = 0
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if edges_read >= m:
            raise GraphParseError(f"unexpected extra edge at line {lineno}")
        try:
            a, b = parts
            u, v = int(a), int(b)
        except ValueError:
            raise GraphParseError(f"malformed edge at line {lineno}") from None
        if not (0 <= u < n and 0 <= v < n):
            w = v if 0 <= u < n else u
            raise GraphParseError(f"vertex {w} out of range at line {lineno}")
        if u == v:
            raise GraphParseError(f"self-loop at line {lineno}")
        edges_read += 1
        key = u * n + v if u < v else v * n + u
        if key not in seen:
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
    if edges_read != m:
        raise GraphParseError(f"expected {m} edges, found {edges_read}")
    return g


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text: header then sorted live edges."""
    edges = g.live_edges()
    lines = [f"{g.n_total} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def find_claw(g: Graph) -> tuple[int, tuple[int, int, int]] | None:
    """First induced K_{1,3}: (center, three pairwise non-adjacent leaves).

    Returns None iff the live graph is claw-free.  Scans centers in id
    order and leaf triples in lexicographic order, so the witness is
    deterministic.
    """
    removed = g.removed
    for u in g.live_vertices():
        nbrs = [w for w in g.adjacency[u] if not removed[w]]
        if len(nbrs) < 3:
            continue
        nbrs.sort()
        adjsets = {w: set(g.adjacency[w]) for w in nbrs}
        for a, b, c in combinations(nbrs, 3):
            if b not in adjsets[a] and c not in adjsets[a] and c not in adjsets[b]:
                return u, (a, b, c)
    return None


def _non_adjacent_pair(g: Graph, vertices: Sequence[int]) -> tuple[int, int] | None:
    """First pair (a, b), a listed before b, of non-adjacent vertices.

    A pair costs one lookup.  A longer list is put in one set, and each
    vertex but the last has its neighbours in that set counted, so a
    clique costs the length of its members' lists (the last vertex is
    then seen by all the others).  Only the first vertex whose count
    falls short starts the pairwise scan: every vertex before it sees
    all the others, so the first pair starts there or later.  A vertex
    listed twice never sees itself, so every count falls short and the
    scan runs from the start.
    """
    adj = g.adjacency
    if len(vertices) == 2:
        a, b = vertices
        return None if b in adj[a] else (a, b)
    members = set(vertices)
    others = len(vertices) - 1
    for i in range(others):
        if len(members.intersection(adj[vertices[i]])) < others:
            break
    else:
        return None
    for i, a in enumerate(vertices[i:-1], i):
        aset = set(adj[a])
        for b in vertices[i + 1:]:
            if b not in aset:
                return a, b
    return None


def is_simplicial(g: Graph, u: int) -> bool:
    """True iff the live neighborhood of u is a clique."""
    if not g.is_live(u):
        raise ValueError(f"vertex {u} is removed")
    removed = g.removed
    return _non_adjacent_pair(
        g, [w for w in g.adjacency[u] if not removed[w]]) is None


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff all pairs in the set are adjacent (size <= 1: true)."""
    vs = list(vertices)
    for u in vs:
        if not g.is_live(u):
            raise ValueError(f"vertex {u} is removed")
    return _non_adjacent_pair(g, vs) is None


def connected_components(g: Graph) -> list[list[int]]:
    """Components of the live graph, each sorted, in order of smallest id."""
    removed = g.removed
    seen = [False] * g.n_total
    comps = []
    for s in g.live_vertices():
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if not removed[w] and not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    """True iff the live graph has at most one component."""
    return len(connected_components(g)) <= 1


def find_bridges(g: Graph) -> set[tuple[int, int]]:
    """Live edges whose removal disconnects their component.

    Standard lowpoint traversal, iterative to cope with deep graphs.
    """
    n = g.n_total
    removed = g.removed
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    bridges: set[tuple[int, int]] = set()
    timer = 0
    for root in g.live_vertices():
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, Iterator[int]]] = [(root, -1, iter(adj[root]))]
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for w in it:
                if removed[w] or w == parent:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, u, iter(adj[w])))
                    advanced = True
                    break
                if disc[w] < low[u]:
                    low[u] = disc[w]
            if not advanced:
                stack.pop()
                if parent != -1:
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] > disc[parent]:
                        bridges.add((u, parent) if u < parent else (parent, u))
    return bridges

