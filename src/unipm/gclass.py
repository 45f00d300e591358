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

from .graph import (MAX_VERTICES, Graph, _forced_pairs, _non_adjacent_pair,
                    is_simplicial)


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
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "INIT" and len(parts) == 3:
                steps.append(InitStep(int(parts[1]), int(parts[2])))
            elif parts[0] == "OP1" and len(parts) == 4:
                steps.append(Op1Step(int(parts[1]), int(parts[2]), int(parts[3])))
            elif parts[0] == "OP2" and len(parts) >= 4:
                steps.append(Op2Step(tuple(int(p) for p in parts[3:]),
                                     int(parts[1]), int(parts[2])))
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
        pair = _non_adjacent_pair(
            g, [w for w in g.adjacency[u] if not removed[w] and w not in cset])
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
    x = g.add_vertex()
    y = g.add_vertex()
    g.add_edge(x, y)
    g.add_edge(x, u)
    g.add_edge(y, u)
    return x, y


def apply_op2(g: Graph, clique: tuple[int, ...]) -> tuple[int, int]:
    """Attach a fresh pendant path x-y at a valid clique; returns (x, y).

    Mutates g in place: adds x adjacent to every clique member, y
    adjacent to x only.  Valid means: C is a non-empty clique and the
    outside neighborhood of every member is a clique.
    """
    reason = _op2_violation(g, tuple(clique))
    if reason is not None:
        raise OperationError(reason)
    return _attach_pendant_path(g, clique)


def _attach_pendant_path(g: Graph,
                         clique: tuple[int, ...]) -> tuple[int, int]:
    """The second operation without its precondition check: fresh x, y
    with the edges x-y and x-c for each c in clique, appended as
    add_edge would append them (x and y are fresh, so none is a
    duplicate or touches a removed vertex)."""
    x = g.add_vertex()
    y = g.add_vertex()
    adj = g.adjacency
    ax = adj[x]
    ax.append(y)
    adj[y].append(x)
    for c in clique:
        ax.append(c)
        adj[c].append(x)
    g.edge_count += 1 + len(clique)
    return x, y


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

    def __len__(self):
        return len(self.items)

    def __contains__(self, v):
        return v in self.index


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
            x, y = _attach_pendant_path(g, clique)
            # c gains x, which sees only C and y, so c stays simplicial
            # iff N(c) is (C - c) + x, of size |C|; none becomes simplicial
            for c in clique:
                if len(g.adjacency[c]) > len(clique):
                    simplicial.discard(c)
            simplicial.add(y)
            trace.append(Op2Step(clique, x, y))
        else:
            u = simplicial.choice(rng)
            x, y = apply_op1(g, u)
            # u gains the mutually adjacent pair x, y and stops being
            # simplicial (its old neighbors never see x or y)
            simplicial.discard(u)
            simplicial.add(x)
            simplicial.add(y)
            trace.append(Op1Step(u, x, y))
        last_y = y
    return g, ConstructionTrace(tuple(trace))


def replay(trace: ConstructionTrace) -> Graph:
    """Rebuild the construction with full validation at every step.

    Vertex ids are taken from the trace verbatim (decomposition traces
    preserve the original labeling), so the result equals the source
    graph exactly.  Any violated precondition raises an OperationError
    naming the step index; a vertex id at or above ``MAX_VERTICES``
    raises one before anything is allocated.
    """
    steps = trace.steps
    if not steps or not isinstance(steps[0], InitStep):
        raise OperationError("step 0: trace must start with INIT")
    mentioned: list[int] = []
    for i, step in enumerate(steps):
        if i > 0 and isinstance(step, InitStep):
            raise OperationError(f"step {i}: INIT only allowed first")
        if isinstance(step, InitStep):
            mentioned += [step.u, step.v]
        else:
            mentioned += [step.x, step.y]
    mentioned_set = set(mentioned)
    # hence INIT's u != v, and each step's x and y are not yet present
    if len(mentioned_set) != len(mentioned):
        raise OperationError("trace introduces a vertex twice")
    if min(mentioned) < 0:
        raise OperationError("negative vertex id in trace")
    n = max(mentioned) + 1
    if n > MAX_VERTICES:
        raise OperationError(f"trace needs {n} vertices, more than the "
                             f"limit of {MAX_VERTICES}")
    g = Graph(n)
    for v in range(n):
        if v not in mentioned_set:
            g.remove_vertex(v)  # id gaps stay permanently removed
    init = steps[0]
    g.add_edge(init.u, init.v)
    present = {init.u, init.v}

    for i, step in enumerate(steps[1:], start=1):
        if isinstance(step, Op1Step):
            anchors: tuple[int, ...] = (step.u,)
        else:
            anchors = step.clique
        for a in anchors:
            if a not in present:
                raise OperationError(f"step {i}: vertex {a} not yet present")
        if isinstance(step, Op1Step):
            if not is_simplicial(g, step.u):
                raise OperationError(f"step {i}: vertex {step.u} is not simplicial")
        else:
            reason = _op2_violation(g, step.clique)
            if reason is not None:
                raise OperationError(f"step {i}: {reason}")
        g.add_edge(step.x, step.y)
        if isinstance(step, Op1Step):
            g.add_edge(step.x, step.u)
            g.add_edge(step.y, step.u)
        else:
            for c in step.clique:
                g.add_edge(step.x, c)
        present.update((step.x, step.y))
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
    work = g.view()
    steps: list[Step] = []
    for x, y, u in _forced_pairs(work):
        if not work.live_count:
            steps.append(InitStep(min(x, y), max(x, y)))
            steps.reverse()
            return ConstructionTrace(tuple(steps))
        if u != -1:
            if not is_simplicial(work, u):
                return None
            steps.append(Op1Step(u, x, y))
        else:
            clique = tuple(sorted(work.live_neighbors(x)))
            if _op2_violation(work, clique) is not None:
                return None
            steps.append(Op2Step(clique, x, y))
    return None
