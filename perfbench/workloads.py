"""Seeded workloads: instance generation, set-up checks and the op schedule.

Each workload builds its instances from the workload seed, checks them
with the benchmark's own code (``truth``), writes them as files and
returns groups of visits.  A group is one size; a visit is the list of
CLI ops run back to back on one instance.  The run interleaves the
groups round-robin, as ``unipm bench`` does, so a slow spell of the
host hits every size instead of one.

Instances come from the library's generators, called through the names
``unipm.cli`` looks them up by so that a traced run sees them; what the
benchmark trusts is the construction trace each generator returns,
replayed by ``truth.rebuild``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import truth


@dataclass
class Item:
    """One instance file and what a correct answer about it looks like."""

    key: str
    n: int
    edges: set
    expect: str  # "unique", "multi" (two or more perfect matchings) or "none"
    pm: set | None = None  # the unique perfect matching
    known_pms: list = field(default_factory=list)  # seed the witness check
    undecided_ok: bool = False  # exit 3 is the documented answer
    path: str = ""
    trace_path: str = ""  # where the trace emitted by decompose is kept
    _adj: list | None = None

    @property
    def adj(self) -> list[set[int]]:
        if self._adj is None:
            self._adj = truth.adjacency(self.n, self.edges)
        return self._adj


@dataclass
class Op:
    kind: str  # the CLI command: check, decompose, replay, clawfree or interval
    item: Item
    path: str


@dataclass
class Workload:
    name: str
    groups: list[list[list[Op]]]  # size -> visits -> ops
    # the size each group is named by: n, or m on linear-large; small-many's
    # last group, the 17-20 slice, is named 20
    sizes: list[int]
    size_unit: str
    kinds: tuple[str, ...]
    # groups the scaling fit uses; small-many leaves out its undecided slice
    scaling_groups: list[int] = field(default_factory=list)
    # single-size metrics pool every size instead of taking the top one
    pooled: bool = False


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _member(steps) -> tuple[int, set, set]:
    """(n, edges, unique perfect matching) of a construction trace, checked."""
    n, edges = truth.rebuild(steps)
    return n, edges, truth.trace_matching(steps)


def gclass_steps(steps: int, op2_bias: float, seed: int) -> list[tuple]:
    from unipm import cli
    _, trace = cli.random_gclass(steps, op2_bias=op2_bias, seed=seed)
    return truth.parse_trace_text(cli.format_trace(trace))


def chain_steps(k: int) -> list[tuple]:
    from unipm import cli
    _, trace = cli.clique_chain(k)
    return truth.parse_trace_text(cli.format_trace(trace))


def _unique_item(key: str, steps, workdir: str) -> Item:
    n, edges, pm = _member(steps)
    item = Item(key, n, edges, "unique", pm=pm,
                path=os.path.join(workdir, key + ".g"),
                trace_path=os.path.join(workdir, key + ".decomposed"))
    _write(item.path, truth.graph_text(n, edges))
    return item


def _chorded_item(key: str, n: int, edges: set, pm: set, cycle: tuple,
                  workdir: str) -> Item:
    """The member plus the chord that closes the alternating 4-cycle a-b-c-d.

    a-b and c-d are matched, b-c is an edge and d-a is the chord, so the
    member's matching and its swap along the cycle are two perfect
    matchings of the result.
    """
    a, b, c, d = cycle
    if not _keeps_clawfree(truth.adjacency(n, edges), d, a):
        raise RuntimeError(f"{key}: chord {d}-{a} makes a claw")
    chorded = edges | {truth.norm(d, a)}
    swapped = (pm - {truth.norm(a, b), truth.norm(c, d)}) | {truth.norm(b, c), truth.norm(d, a)}
    for matching in (pm, swapped):
        if not truth.is_perfect_matching(n, chorded, matching):
            raise RuntimeError(f"{key}: chord does not give two perfect matchings")
    item = Item(key, n, chorded, "multi", known_pms=[pm, swapped],
                path=os.path.join(workdir, key + ".g"))
    _write(item.path, truth.graph_text(n, chorded))
    return item


def _keeps_clawfree(adj: list[set[int]], u: int, v: int) -> bool:
    """Whether adding edge u-v to a claw-free graph keeps it claw-free.

    A new claw needs a new centre-leaf edge, so only u and v can be its centre.
    """
    adj[u].add(v)
    adj[v].add(u)
    ok = not truth.claw_at(adj, u) and not truth.claw_at(adj, v)
    adj[u].discard(v)
    adj[v].discard(u)
    return ok


def _chain_chord_cycle(t: int) -> tuple[int, int, int, int]:
    """Alternating 4-cycle y_{t-1}, x_{t-1}, x_t, y_t of a clique chain (x_t = 2t, y_t = 2t+1)."""
    return (2 * t - 1, 2 * t - 2, 2 * t, 2 * t + 1)


def _gclass_chord_cycle(steps, n: int, edges: set):
    """A 4-cycle y, x, c, partner(c) for a pendant-path step (C, x, y) and c in C.

    The chord y-partner(c) closes it.  Of the chords that keep the graph
    claw-free, the one whose cycle's lowest vertex id is closest to n/2
    is kept, so the cycle sits mid-graph in id order, as the chain's does.
    """
    adj = truth.adjacency(n, edges)
    partner: dict[int, int] = {}
    for u, v in truth.trace_matching(steps):
        partner[u], partner[v] = v, u
    candidates = sorted(((s[2], s[1], c, partner[c]) for s in steps if s[0] == "OP2"
                         for c in s[3]), key=lambda cyc: (abs(min(cyc) - n // 2), cyc))
    for y, x, c, p in candidates:
        if p != y and p not in adj[y] and _keeps_clawfree(adj, y, p):
            return (y, x, c, p)
    return None


def unique_clawfree(seed: int, workdir: str, sizes=(128, 256, 512),
                    per_size: int = 16) -> Workload:
    rng = random.Random(f"unique-clawfree:{seed}")
    groups = []
    for n in sizes:
        visits = []
        for i in range(per_size):
            steps = gclass_steps((n - 2) // 2, 0.5, rng.randrange(1 << 30))
            item = _unique_item(f"gclass-{n}-{i}", steps, workdir)
            visits.append([Op("check", item, item.path),
                           Op("decompose", item, item.path),
                           Op("replay", item, item.trace_path)])
        groups.append(visits)
    return Workload("unique-clawfree", groups, list(sizes), "n",
                    ("check", "decompose", "replay"), list(range(len(sizes))))


def witness_search(seed: int, workdir: str, sizes=(128, 256, 512),
                   members: int = 23) -> Workload:
    rng = random.Random(f"witness-search:{seed}")
    groups = []
    for n in sizes:
        k = (n - 2) // 2
        cn, cedges, cpm = _member(chain_steps(k))
        items = [_chorded_item(f"chain-chord-{n}", cn, cedges, cpm,
                               _chain_chord_cycle(k // 2), workdir)]
        while len(items) <= members:
            steps = gclass_steps(k, 0.5, rng.randrange(1 << 30))
            gn, gedges, gpm = _member(steps)
            cycle = _gclass_chord_cycle(steps, gn, gedges)
            if cycle is not None:
                items.append(_chorded_item(f"gclass-chord-{n}-{len(items)}", gn, gedges,
                                           gpm, cycle, workdir))
        groups.append([[Op("check", item, item.path)] for item in items])
    return Workload("witness-search", groups, list(sizes), "n", ("check",),
                    list(range(len(sizes))))


def chain_intervals(k: int) -> list[tuple[int, int]]:
    """Interval representation of clique_chain(k), endpoints distinct.

    The chain's maximal cliques are C_t = {x_t, y_t, x_{t+1}} in a path;
    each vertex spans the cliques it lies in, offset by its id so that no
    two endpoints coincide and only vertices sharing a clique overlap.
    """
    n = 2 * k + 2
    spans = {}
    for t in range(k + 1):
        spans[2 * t + 1] = (t, t)
        spans[2 * t] = (max(t - 1, 0), t)
    width = 3 * n
    return [((lo * width + v) * 2, (hi * width + 2 * n + v) * 2 + 1)
            for v, (lo, hi) in sorted(spans.items())]


def linear_large(seed: int, workdir: str,
                 sizes=(12_500, 25_000, 50_000)) -> Workload:
    rng = random.Random(f"linear-large:{seed}")
    groups = []
    for m in sizes:
        k = (m - 1) // 3
        steps = chain_steps(k)
        chain = _unique_item(f"chain-{m}", steps, workdir)
        intervals = chain_intervals(k)
        if truth.interval_edges(intervals) != chain.edges:
            raise RuntimeError(f"interval representation of chain-{m} is not exact")
        iv_path = os.path.join(workdir, f"chain-{m}.iv")
        _write(iv_path, f"{len(intervals)}\n"
               + "".join(f"{v} {lo} {hi}\n" for v, (lo, hi) in enumerate(intervals)))
        member = _unique_item(f"gclass-{m}", gclass_steps(m * 5 // 18, 1.0,
                                                          rng.randrange(1 << 30)),
                              workdir)
        chord = _chorded_item(f"chain-chord-{m}", chain.n, chain.edges, chain.pm,
                              _chain_chord_cycle(1), workdir)
        # the chain's representation is the size's one interval instance, so
        # every visit sweeps it once to give interval_s as many samples as check_s
        groups.append([[Op("check", item, item.path), Op("clawfree", item, item.path),
                        Op("interval", chain, iv_path)] for item in (chain, member, chord)])
    return Workload("linear-large", groups, list(sizes), "m",
                    ("check", "clawfree", "interval"), list(range(len(sizes))))


def _random_connected(n: int, p: float, rng: random.Random) -> set:
    edges = {truth.norm(v, rng.randrange(v)) for v in range(1, n)}
    edges.update((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
    return edges


def _corona(n: int, rng: random.Random) -> set:
    """A random connected graph on n/2 vertices with a pendant at each: one perfect matching."""
    h = n // 2
    edges = _random_connected(h, 0.3, rng)
    edges.update((v, v + h) for v in range(h))
    return edges


def _line_graph(n: int, rng: random.Random) -> set:
    """Line graph of a random connected graph with n edges: connected and claw-free."""
    order = rng.randrange(n // 2 + 2, n + 2)
    base = {truth.norm(v, rng.randrange(v)) for v in range(1, order)}
    while len(base) < n:
        u, v = rng.sample(range(order), 2)
        base.add(truth.norm(u, v))
    ids = sorted(base)
    return {(i, j) for i in range(n) for j in range(i + 1, n) if set(ids[i]) & set(ids[j])}


def _small_item(key: str, n: int, edges: set, workdir: str) -> Item:
    adj = truth.adjacency(n, edges)
    if not truth.is_connected(n, adj):
        raise RuntimeError(f"{key}: corpus graph is not connected")
    count, first = truth.count_pms(n, adj)
    expect = ("none", "unique", "multi")[count]
    clawed = truth.has_claw(adj)
    item = Item(key, n, edges, expect,
                pm={truth.norm(u, v) for u, v in first} if count == 1 else None,
                undecided_ok=clawed and n > 16 and not truth.forcing_decides(n, adj),
                path=os.path.join(workdir, key + ".g"), _adj=adj)
    _write(item.path, truth.graph_text(n, edges))
    return item


def small_many(seed: int, workdir: str, per_kind: int = 16) -> Workload:
    """Connected graphs on 10-16 vertices of four kinds, plus a clawed 17-20 slice.

    Even orders get claw-free members (unique), chorded members
    (claw-free, several matchings), coronas (clawed, unique) and random
    graphs (clawed, mostly several matchings); odd orders get line
    graphs and random graphs (no perfect matching).  The slice, one more
    group, holds clawed graphs on 17-20 vertices that degree-1 forcing
    cannot decide: the CLI documents "undecided" as its answer there.
    """
    rng = random.Random(f"small-many:{seed}")
    groups = []
    for n in range(10, 17):
        graphs: list[tuple[str, set]] = []
        for i in range(per_kind):
            if n % 2:
                graphs.append((f"line-{n}-{i}", _line_graph(n, rng)))
                graphs.append((f"random-{n}-{i}", _random_connected(n, 0.3, rng)))
                continue
            cycle = None
            while cycle is None:
                steps = gclass_steps((n - 2) // 2, 0.5, rng.randrange(1 << 30))
                mn, medges, _ = _member(steps)
                cycle = _gclass_chord_cycle(steps, mn, medges)
            y, _, _, p = cycle
            graphs.append((f"gclass-{n}-{i}", medges))
            graphs.append((f"chorded-{n}-{i}", medges | {truth.norm(y, p)}))
            graphs.append((f"corona-{n}-{i}", _corona(n, rng)))
            graphs.append((f"random-{n}-{i}", _random_connected(n, 0.3, rng)))
        groups.append([_small_item(key, n, edges, workdir) for key, edges in graphs])
    clawed = []
    for i in range(4 * per_kind):
        n = 17 + i % 4
        while True:
            edges = _random_connected(n, rng.choice((0.15, 0.25)), rng)
            adj = truth.adjacency(n, edges)
            if truth.has_claw(adj) and not truth.forcing_decides(n, adj):
                break
        clawed.append(_small_item(f"slice-{n}-{i}", n, edges, workdir))
    groups.append(clawed)
    return Workload("small-many", [[[Op("check", item, item.path)] for item in items]
                                   for items in groups],
                    list(range(10, 17)) + [20], "n", ("check",), list(range(7)),
                    pooled=True)


WORKLOADS = {
    "unique-clawfree": unique_clawfree,
    "witness-search": witness_search,
    "linear-large": linear_large,
    "small-many": small_many,
}
