"""The class operations give the same outcomes as pinned.

``replay``, ``decompose``, ``apply_op1`` and ``apply_op2`` check each
construction step's preconditions.  Each case below runs one of them on
thousands of seeded inputs, valid and broken, and hashes the outcome:
the rebuilt graph (adjacency lists in order, removal flags and counts)
or the exact error text.  A digest that moves means some input now gets
another graph, another trace or another message.  ``_non_adjacent_pair``
backs every clique test, and is checked against the brute-force first
pair.
"""

import hashlib
import random

from unipm import (Graph, InitStep, Op1Step, Op2Step, apply_op1, apply_op2,
                   decompose, format_trace, random_gclass, replay)
from unipm.graph import MAX_VERTICES, _non_adjacent_pair


def _state(g: Graph) -> str:
    return (f"{g.adjacency!r} {g.removed!r} {g.live_count} {g.edge_count}")


def _outcome(fn, *args) -> str:
    try:
        result = fn(*args)
    except ValueError as exc:  # OperationError is one
        return f"{type(exc).__name__}: {exc}"
    return str(result)


def _member(rng: random.Random, max_steps: int):
    return random_gclass(rng.randint(0, max_steps), op2_bias=rng.random(),
                         seed=rng.randrange(1 << 30))


def _any_id(rng: random.Random, n: int) -> int:
    roll = rng.random()
    if roll < 0.02:
        return -1 - rng.randrange(3)
    if roll < 0.04:
        return MAX_VERTICES + rng.randrange(3)
    return rng.randrange(n + 3)


def _mutate(rng: random.Random, steps: list, n: int) -> None:
    """One random edit of a valid trace: an anchor (most often), a
    fresh id, the order, a step's kind or the INIT."""
    i = rng.randrange(1, len(steps)) if len(steps) > 1 else 0
    s = steps[i]
    kind = rng.choice((0, 1, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9))

    def anchor():
        # mostly a vertex the steps before s introduced, if ids run in order
        if rng.random() < 0.75 and not isinstance(s, InitStep) and s.x > 0:
            return rng.randrange(min(s.x, n))
        return _any_id(rng, n)

    if kind == 0 or isinstance(s, InitStep):
        steps[i] = InitStep(_any_id(rng, n), _any_id(rng, n))
    elif kind == 1 and isinstance(s, Op1Step):
        steps[i] = Op1Step(anchor(), s.x, s.y)
    elif kind == 1:
        clique = list(s.clique)
        edit = rng.randrange(4) if clique else 0
        if edit == 0:
            clique.insert(rng.randrange(len(clique) + 1), anchor())
        elif edit == 1:
            clique.pop(rng.randrange(len(clique)))
        elif edit == 2:
            clique[rng.randrange(len(clique))] = anchor()
        else:
            clique.append(rng.choice(clique))
        steps[i] = Op2Step(tuple(clique), s.x, s.y)
    elif kind == 2:
        x, y = _any_id(rng, n), s.y
        steps[i] = (Op1Step(s.u, x, y) if isinstance(s, Op1Step)
                    else Op2Step(s.clique, x, y))
    elif kind == 3:
        j = rng.randrange(len(steps))
        steps[i], steps[j] = steps[j], steps[i]
    elif kind == 4:
        del steps[i]
    elif kind == 5 and isinstance(s, Op1Step):
        steps[i] = Op2Step((s.u,), s.x, s.y)
    elif kind == 5 and s.clique:
        steps[i] = Op1Step(s.clique[0], s.x, s.y)
    elif kind == 6:
        steps.insert(rng.randrange(1, len(steps) + 1), steps[0])
    elif kind == 7 and isinstance(steps[0], InitStep):
        steps[0] = Op1Step(steps[0].u, steps[0].v, n)
    elif kind == 8:
        shift = rng.randrange(1, 4)
        steps[:] = [_shifted(t, shift) for t in steps]
    # kind 9: the valid trace itself


def _shifted(s, d: int):
    if isinstance(s, InitStep):
        return InitStep(s.u + d, s.v + d)
    if isinstance(s, Op1Step):
        return Op1Step(s.u + d, s.x + d, s.y + d)
    return Op2Step(tuple(c + d for c in s.clique), s.x + d, s.y + d)


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    """g under a random permutation of its ids, with a few extra ids
    that are removed after edges to random vertices are added."""
    n = g.n_total
    extra = rng.randrange(3)
    perm = list(range(n + extra))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.live_edges()]
    rng.shuffle(edges)
    ghosts = perm[n:]
    for z in ghosts:
        edges += [(z, perm[w]) for w in rng.sample(range(n), min(n, 3))]
    h = Graph.from_edges(n + extra, edges)
    for z in ghosts:
        h.remove_vertex(z)
    return h


def _plus_edge(g: Graph, rng: random.Random) -> Graph:
    n = g.n_total
    edges = g.live_edges()
    present = set(edges)
    for _ in range(20):
        a, b = sorted(rng.sample(range(n), 2))
        if (a, b) not in present:
            edges.append((a, b))
            break
    return Graph.from_edges(n, edges)


def _digest(outcomes) -> tuple[str, dict[str, int]]:
    h = hashlib.sha256()
    heads: dict[str, int] = {}
    for text in outcomes:
        h.update(text.encode())
        h.update(b"\0")
        head = text.split(":")[0] if text.startswith("OperationError") else "ok"
        heads[head] = heads.get(head, 0) + 1
    return h.hexdigest(), heads


def replay_outcomes():
    rng = random.Random(0x5EED)
    for _ in range(3200):
        _, trace = _member(rng, 24)
        steps = list(trace)
        n = 2 + 2 * (len(steps) - 1)
        for _ in range(rng.choice((1, 1, 1, 2))):
            _mutate(rng, steps, n)
        yield _outcome(lambda t: _state(replay(t)), tuple(steps))


def decompose_outcomes():
    rng = random.Random(0xDEC0)
    for _ in range(600):
        g, _ = _member(rng, 30)
        for h in (g, _plus_edge(g, rng), _relabelled(g, rng)):
            trace = decompose(h)
            yield "None" if trace is None else format_trace(trace)


def op_outcomes():
    rng = random.Random(0x0B5)
    for _ in range(800):
        g, _ = _member(rng, 20)
        n = g.n_total
        if rng.random() < 0.5:
            yield _outcome(apply_op1, g, _any_id(rng, n))
        else:
            size = rng.randrange(4)
            clique = tuple(rng.choice(range(n)) if rng.random() < 0.9
                           else _any_id(rng, n) for _ in range(size))
            yield _outcome(apply_op2, g, clique)
        yield _state(g)


def test_replay_outcomes_are_pinned():
    digest, heads = _digest(replay_outcomes())
    # most edits break the trace, and the valid ones still rebuild
    assert heads["ok"] > 500 and heads["OperationError"] > 1500
    assert digest == (
        "252d7f01ae77c13f3018a3cfbd245b0d352b05c2163dd8b8c2bd5c0e7ade702f")


def test_decompose_outcomes_are_pinned():
    outcomes = list(decompose_outcomes())
    assert 300 < outcomes.count("None") < 1200
    digest, _ = _digest(outcomes)
    assert digest == (
        "00275034c3bfa53cca0015f67ea4103be7a6e3db2bb5266e245d45e70ea28e06")


def test_op_outcomes_are_pinned():
    digest, heads = _digest(op_outcomes())
    assert heads["OperationError"] > 100
    assert digest == (
        "ba54b8b13d7c292e3dbccb3802e178f38afcc476c375b1efd7fae5eaf5552c27")


def _first_pair_brute(g: Graph, vertices):
    for i, a in enumerate(vertices):
        for b in vertices[i + 1:]:
            if b not in g.adjacency[a]:
                return a, b
    return None


def test_non_adjacent_pair_is_the_first_pair():
    """Dense random graphs with removed vertices; lists drawn from a
    vertex's neighbours (often a clique), at random, or with repeats."""
    rng = random.Random(0xAD7)
    found = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.randint(1, 12)
        p = rng.choice((0.5, 0.8, 0.95))
        g = Graph.from_edges(n, [(a, b) for a in range(n)
                                 for b in range(a + 1, n) if rng.random() < p])
        for v in rng.sample(range(n), rng.randrange(n)):
            g.remove_vertex(v)
        roll = rng.random()
        if roll < 0.5:
            vs = list(g.adjacency[rng.randrange(n)])
            rng.shuffle(vs)
        else:
            vs = [rng.randrange(n) for _ in range(rng.randrange(6))]
            if roll < 0.6 and vs:
                vs.insert(rng.randrange(len(vs)), rng.choice(vs))
        pair = _non_adjacent_pair(g, vs)
        assert pair == _first_pair_brute(g, vs), (g.adjacency, vs)
        found[pair is None] += 1
    assert min(found.values()) > 800
