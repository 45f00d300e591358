"""Interval representations and the min-right-endpoint matching sweep.

Given intervals with globally distinct endpoints, repeatedly matching
the unmatched vertex of minimum right endpoint to its unmatched
neighbor of minimum right endpoint builds a maximum matching of their
intersection graph, so it finds a perfect matching iff one exists.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, Matching


class IntervalParseError(ValueError):
    """Input text violates the interval format or its preconditions."""


class IntervalPMError(ValueError):
    """The sweep found no perfect matching, so there is none."""


@dataclass(frozen=True)
class IntervalRep:
    """Closed interval [l, r] per vertex; all 2n endpoints distinct."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for v, (l, r) in enumerate(self.intervals):
            if l >= r:
                raise IntervalParseError(
                    f"interval of vertex {v} has l >= r ({l} >= {r})")
            for e in (l, r):
                if e in seen:
                    raise IntervalParseError(
                        f"endpoints not distinct: {e} repeated")
                seen.add(e)

    @property
    def n(self) -> int:
        return len(self.intervals)


def parse_intervals(text: str) -> IntervalRep:
    """Parse "n" header then n lines "v l r"; validates all invariants."""
    header: int | None = None
    rows: dict[int, tuple[int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 1:
                raise IntervalParseError(f"malformed header at line {lineno}")
            try:
                header = int(parts[0])
            except ValueError:
                raise IntervalParseError(f"malformed header at line {lineno}") from None
            if header < 0:
                raise IntervalParseError(f"negative count at line {lineno}")
            continue
        if len(parts) != 3:
            raise IntervalParseError(f"malformed interval at line {lineno}")
        try:
            v, l, r = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise IntervalParseError(f"malformed interval at line {lineno}") from None
        if not 0 <= v < header:
            raise IntervalParseError(f"vertex {v} out of range at line {lineno}")
        if v in rows:
            raise IntervalParseError(f"vertex {v} repeated at line {lineno}")
        rows[v] = (l, r)
    if header is None:
        raise IntervalParseError("missing header")
    if len(rows) != header:
        raise IntervalParseError(f"expected {header} intervals, found {len(rows)}")
    return IntervalRep(tuple(rows[v] for v in range(header)))


def normalize_endpoints(pairs: list[tuple[int, int]]) -> IntervalRep:
    """Rank-remap raw endpoints to 1..2n so they become distinct.

    Ties break left-endpoint-before-right, then by vertex id.  When the
    input had genuine point-intersections (shared endpoint values) this
    CHANGES the intersection graph; it is a convenience for generating
    valid representations, not a silent repair of invalid ones.
    """
    events = []
    for v, (l, r) in enumerate(pairs):
        if l > r:
            raise ValueError(f"interval of vertex {v} has l > r")
        events.append((l, 0, v))
        events.append((r, 1, v))
    events.sort()
    lefts = [0] * len(pairs)
    rights = [0] * len(pairs)
    for rank, (_, which, v) in enumerate(events, start=1):
        if which == 0:
            lefts[v] = rank
        else:
            rights[v] = rank
    return IntervalRep(tuple(zip(lefts, rights)))


def intersection_graph(rep: IntervalRep) -> Graph:
    """Graph with an edge {u, v} iff max(l_u, l_v) < min(r_u, r_v)."""
    n = rep.n
    intervals = rep.intervals
    order = sorted(range(n), key=lambda v: intervals[v][0])
    g = Graph(n)
    adj = g.adjacency
    active: list[tuple[int, int]] = []  # (r, vertex) heap
    # each pair meets once, when the later-starting vertex is reached,
    # so the edges are distinct and need no dedupe
    for v in order:
        l, r = intervals[v]
        while active and active[0][0] < l:
            heapq.heappop(active)
        adj_v = adj[v]
        for _, w in active:
            adj_v.append(w)
            adj[w].append(v)
        heapq.heappush(active, (r, v))
    return g


def interval_pm(rep: IntervalRep,
                removed: Sequence[bool] | None = None) -> Matching:
    """A perfect matching of the intervals not flagged in ``removed``.

    Repeats on the unmatched set: u = unmatched vertex with minimum r;
    v = unmatched neighbor of u with minimum r; match them.  Raises
    IntervalPMError (odd order, or u has no unmatched neighbor) exactly
    when their intersection graph H has no perfect matching.  Exchange
    argument: every unmatched neighbor w of u contains the point r_u
    (l_w < r_u < r_w), and every vertex x that meets v ends after r_u and
    starts before r_v <= r_w, so x meets w.  So a maximum matching of H
    holding u-w and v-x can trade them for u-v and w-x, and one leaving
    u or v exposed can trade the other's pair for u-v: some maximum
    matching holds u-v.  By induction on H - u - v the sweep builds a
    maximum matching, and a stuck u is exposed in it.

    u is the next unmatched vertex in r order; since the thresholds r_u
    increase, one l-sorted scan feeds the lazy-deletion heap (keyed by
    r) that yields v.  O(n log n): two sorts and one heap.
    """
    intervals = rep.intervals
    live = (range(rep.n) if removed is None
            else [v for v, dead in enumerate(removed) if not dead])
    n = len(live)
    if n % 2:
        raise IntervalPMError("odd order")
    by_l = sorted(live, key=lambda v: intervals[v][0])
    active: list[tuple[int, int]] = []
    matched = [False] * rep.n
    li = 0
    pairs = []
    for u in sorted(live, key=lambda v: intervals[v][1]):
        if matched[u]:
            continue
        matched[u] = True
        r_u = intervals[u][1]
        while li < n and intervals[by_l[li]][0] < r_u:
            w = by_l[li]
            heapq.heappush(active, (intervals[w][1], w))
            li += 1
        while active and matched[active[0][1]]:
            heapq.heappop(active)
        if not active:
            raise IntervalPMError(f"stuck at vertex {u}")
        v = heapq.heappop(active)[1]
        matched[v] = True
        pairs.append((u, v))
    return Matching(pairs)
