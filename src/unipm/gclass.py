"""Constructive class of connected claw-free graphs with a unique
perfect matching.

Members grow from a single edge by two operations: attach a fresh
triangle at a simplicial vertex, or attach a fresh pendant path of
length two at a clique whose members have clique outside-neighborhoods.
``decompose`` inverts the construction with the forced-pair peel the
uniqueness verifier also runs (pendant edges and pendant triangles are
the endblocks the two operations leave), checks each step it records
and so certifies membership; ``replay`` rebuilds a graph from its trace
with full validation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .forcing import _forced_pairs
from .graph import MAX_VERTICES, Graph, _non_adjacent_pair, is_simplicial


class OperationError(ValueError):
    """An operation precondition is violated."""


@dataclass(frozen=True)
class InitStep:
    u: int
    v: int


@dataclass(frozen=True)
class Op1Step:
    u: int
    x: int
    y: int


@dataclass(frozen=True)
class Op2Step:
    clique: tuple[int, ...]
    x: int
    y: int


Step = InitStep | Op1Step | Op2Step


@dataclass(frozen=True)
class ConstructionTrace:
    """Certified build sequence: one Init then Op1/Op2 steps."""

    steps: tuple[Step, ...]


def format_trace(trace: ConstructionTrace) -> str:
    """Text form: "INIT u v", "OP1 u x y", "OP2 x y c1 c2 ..." lines."""
    lines = []
    for step in trace.steps:
        if isinstance(step, InitStep):
            lines.append(f"INIT {step.u} {step.v}")
        elif isinstance(step, Op1Step):
            lines.append(f"OP1 {step.u} {step.x} {step.y}")
        else:
            lines.append(f"OP2 {step.x} {step.y} " + " ".join(map(str, step.clique)))
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> ConstructionTrace:
    """Steps from format_trace's text; blank lines and lines whose first
    token starts with '#' are skipped, and line numbers count them."""
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        key, size = parts[0], len(parts)
        try:
            if key == "OP1" and size == 4:
                steps.append(Op1Step(int(parts[1]), int(parts[2]), int(parts[3])))
            elif key == "OP2" and size >= 4:
                steps.append(Op2Step(tuple(map(int, parts[3:])),
                                     int(parts[1]), int(parts[2])))
            elif key == "INIT" and size == 3:
                steps.append(InitStep(int(parts[1]), int(parts[2])))
            else:
                raise ValueError
        except ValueError:
            raise OperationError(f"malformed trace line {lineno}: {raw!r}") from None
    if not steps:
        raise OperationError("empty trace")
    return ConstructionTrace(tuple(steps))


def _op2_violation(g: Graph, clique: tuple[int, ...]) -> str | None:
    """Why the clique fails the second operation's preconditions, or None."""
    if not clique:
        return "clique is empty"
    cset = set(clique)
    if len(cset) != len(clique):
        return "clique has repeated vertices"
    for u in clique:
        if not g.is_live(u):
            return f"vertex {u} is removed"
    pair = _non_adjacent_pair(g, clique)
    if pair is not None:
        return f"vertices {pair[0]} and {pair[1]} in C are not adjacent"
    return _outside_violation(g, clique, cset)


def _outside_violation(g: Graph, clique: tuple[int, ...],
                       cset: set[int]) -> str | None:
    """Why a member of the clique cset has non-adjacent outside neighbors."""
    removed = g.removed
    for u in clique:
        outside = [w for w in g.adjacency[u] if not removed[w] and w not in cset]
        pair = _non_adjacent_pair(g, outside) if len(outside) > 1 else None
        if pair is not None:
            return (f"vertex {u} in C has non-adjacent outside "
                    f"neighbors {pair[0]} and {pair[1]}")
    return None


def apply_op1(g: Graph, u: int) -> tuple[int, int]:
    """Attach a fresh triangle at simplicial vertex u; returns (x, y).

    Mutates g in place: adds vertices x, y and edges xy, xu, yu.
    Requiring u simplicial is what keeps the result claw-free.
    """
    if not g.is_live(u):
        raise OperationError(f"vertex {u} is removed")
    if not is_simplicial(g, u):
        raise OperationError(f"vertex {u} is not simplicial")
    step = Op1Step(u, g.add_vertex(), g.add_vertex())
    _attach(g, step)
    return step.x, step.y


def apply_op2(g: Graph, clique: tuple[int, ...]) -> tuple[int, int]:
    """Attach a fresh pendant path x-y at a valid clique; returns (x, y).

    Mutates g in place: adds x adjacent to every clique member, y
    adjacent to x only.  Valid means: C is a non-empty clique and the
    outside neighborhood of every member is a clique.
    """
    clique = tuple(clique)
    reason = _op2_violation(g, clique)
    if reason is not None:
        raise OperationError(reason)
    step = Op2Step(clique, g.add_vertex(), g.add_vertex())
    _attach(g, step)
    return step.x, step.y


def _attach(g: Graph, step: Op1Step | Op2Step) -> None:
    """Append a step's edges to g without its precondition check, in
    the order add_edge would append them: x-y, then x-u and y-u, or x-c
    for each c in the clique.  x and y have no edges yet and the anchors
    are other vertices, so no edge is a loop or a duplicate."""
    adj = g.adjacency
    x, y = step.x, step.y
    if isinstance(step, Op1Step):
        u = step.u
        adj[x] += (y, u)
        adj[y] += (x, u)
        adj[u] += (x, y)
    else:
        adj[x].append(y)
        adj[x] += step.clique
        adj[y].append(x)
        for c in step.clique:
            adj[c].append(x)


class _RandomAccessSet:
    """Set with O(1) add/discard/uniform-choice (swap-pop list + index)."""

    __slots__ = ("items", "index")

    def __init__(self, items=()):
        self.items = list(items)
        self.index = {v: i for i, v in enumerate(self.items)}

    def add(self, v):
        if v not in self.index:
            self.index[v] = len(self.items)
            self.items.append(v)

    def discard(self, v):
        i = self.index.pop(v, None)
        if i is None:
            return
        last = self.items.pop()
        if last != v:
            self.items[i] = last
            self.index[last] = i

    def choice(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


def _sample_op2_clique(g: Graph, rng: random.Random) -> tuple[int, ...] | None:
    """Grow a random clique of at most 6 vertices from a pool of common
    neighbors, so only the members' outside neighborhoods need checking
    (g has no removed vertex); give up after 32 tries."""
    n = g.n_total
    for _ in range(32):
        w = rng.randrange(n)
        cset = {w}
        pool = list(g.adjacency[w])
        target = rng.randint(1, 6)
        while len(cset) < target and pool:
            z = pool[rng.randrange(len(pool))]
            zset = set(g.adjacency[z])
            cset.add(z)
            pool = [p for p in pool if p != z and p in zset]
        cand = tuple(sorted(cset))
        if _outside_violation(g, cand, cset) is None:
            return cand
    return None


def random_gclass(steps: int, op2_bias: float = 0.5,
                  seed: int = 0) -> tuple[Graph, ConstructionTrace]:
    """Random class member with its certified trace; deterministic per seed.

    Each step is the second operation with probability ``op2_bias``,
    which must lie in [0, 1].  The first operation picks a uniformly
    random simplicial vertex from an incrementally maintained set (one
    always exists: the most recent y is simplicial).  The second
    samples candidate cliques with bounded retries, falling back to the
    singleton {most recent y}, which always satisfies both preconditions.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0 <= op2_bias <= 1:  # also rejects NaN
        raise ValueError(f"op2_bias must lie in [0, 1], got {op2_bias}")
    rng = random.Random(seed)
    g = Graph.from_edges(2, [(0, 1)])
    trace: list[Step] = [InitStep(0, 1)]
    simplicial = _RandomAccessSet([0, 1])
    last_y = 1
    for _ in range(steps):
        if rng.random() < op2_bias:
            clique = _sample_op2_clique(g, rng) or (last_y,)
            step: Step = Op2Step(clique, g.add_vertex(), g.add_vertex())
            _attach(g, step)
            # c gains x, which sees only C and y, so c stays simplicial
            # iff N(c) is (C - c) + x, of size |C|; none becomes simplicial
            for c in clique:
                if len(g.adjacency[c]) > len(clique):
                    simplicial.discard(c)
        else:
            # drawn from the simplicial set, so op1's check holds as read
            u = simplicial.choice(rng)
            step = Op1Step(u, g.add_vertex(), g.add_vertex())
            _attach(g, step)
            # u gains the mutually adjacent pair x, y and stops being
            # simplicial (its old neighbors never see x or y)
            simplicial.discard(u)
            simplicial.add(step.x)
        simplicial.add(step.y)
        trace.append(step)
        last_y = step.y
    return g, ConstructionTrace(tuple(trace))


def replay(trace: ConstructionTrace) -> Graph:
    """Rebuild the construction, checking each step's preconditions once.

    Vertex ids are taken from the trace verbatim (decomposition traces
    preserve the original labeling), so the result equals the source
    graph exactly; an id the trace never names stays removed.  Any
    violated precondition raises an OperationError naming the step
    index; a vertex id at or above ``MAX_VERTICES`` raises one before
    anything is allocated.  Every id starts removed and comes alive
    after its step, so present means live and every listed neighbour
    is live, and a step's edges need none of add_edge's checks.
    """
    steps = trace.steps
    if not steps or not isinstance(steps[0], InitStep):
        raise OperationError("step 0: trace must start with INIT")
    init = steps[0]
    mentioned = [init.u, init.v]
    for i, step in enumerate(steps[1:], start=1):
        if isinstance(step, InitStep):
            raise OperationError(f"step {i}: INIT only allowed first")
        mentioned += step.x, step.y
    # hence INIT's u != v, and each step's x and y are not yet present
    if len(set(mentioned)) != len(mentioned):
        raise OperationError("trace introduces a vertex twice")
    if min(mentioned) < 0:
        raise OperationError("negative vertex id in trace")
    n = max(mentioned) + 1
    if n > MAX_VERTICES:
        raise OperationError(f"trace needs {n} vertices, more than the "
                             f"limit of {MAX_VERTICES}")
    g = Graph(n)
    adj = g.adjacency
    removed = g.removed = [True] * n
    removed[init.u] = removed[init.v] = False
    g.add_edge(init.u, init.v)

    for i, step in enumerate(steps[1:], start=1):
        if isinstance(step, Op1Step):
            u = step.u
            if not 0 <= u < n or removed[u]:
                raise OperationError(f"step {i}: vertex {u} not yet present")
            if _non_adjacent_pair(g, adj[u]) is not None:
                raise OperationError(f"step {i}: vertex {u} is not simplicial")
        else:
            for a in step.clique:
                if not 0 <= a < n or removed[a]:
                    raise OperationError(f"step {i}: vertex {a} not yet present")
            reason = _op2_violation(g, step.clique)
            if reason is not None:
                raise OperationError(f"step {i}: {reason}")
        _attach(g, step)
        removed[step.x] = removed[step.y] = False
    return g


def decompose(g: Graph) -> ConstructionTrace | None:
    """Trace with replay(trace) equal to g, iff g belongs to the class.

    Peels endblocks with ``_forced_pairs``: a pendant edge inverts the
    clique operation (C = the cutvertex's other neighbors), a pendant
    triangle inverts the simplicial operation, and the last pair, a
    lone edge, is the INIT.  Fails (None) when the peel does not empty
    the graph (it never empties an odd order) or when a recorded step's
    precondition does not hold in the remainder.
    """
    # Sound: each peel checks, in the remainder, the precondition of the
    # step it records, and the last pair is an edge, so replay rebuilds
    # g.  A disconnected g fails: its first component to be peeled away
    # ends in a pendant edge whose clique is empty.  Complete by the
    # lemma any endblock peel rests on: in a class member, peeling any
    # endblock with 2 or 3 vertices passes its check and leaves a class
    # member (which has one again: the last step's x, y), so the order
    # the peel finds them in does not matter.
    # The peel deletes only the pairs it yields, so u and the clique are
    # live, and the clique, read from x's list, has no repeats.
    live = g.live_count
    if live % 2:
        return None
    work = g.view()
    adj, removed = work.adjacency, work.removed
    steps: list[Step] = []
    for i, (x, y, u) in enumerate(_forced_pairs(work)):
        if i == live // 2 - 1:  # the peel has emptied the graph
            steps.append(InitStep(min(x, y), max(x, y)))
            steps.reverse()
            return ConstructionTrace(tuple(steps))
        if u != -1:
            if _non_adjacent_pair(
                    work, [w for w in adj[u] if not removed[w]]) is not None:
                return None
            steps.append(Op1Step(u, x, y))
        else:
            clique = tuple(sorted([w for w in adj[x] if not removed[w]]))
            if (not clique or _non_adjacent_pair(work, clique) is not None
                    or _outside_violation(work, clique, set(clique))
                    is not None):
                return None
            steps.append(Op2Step(clique, x, y))
    return None
