"""Constructive class: operations, random generation, replay, decompose."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipm import (Graph, InitStep, Matching, Op1Step, Op2Step,
                   OperationError, apply_op1, apply_op2, decompose,
                   enumerate_pms, find_bridges, find_claw, format_trace,
                   is_connected, is_unique_pm, parse_trace, pmincf,
                   random_gclass, replay, verify_pm)

from conftest import (C4_EDGES, P4_EDGES, PAW_EDGES, g_of,
                      iter_connected_edge_sets)


def k2() -> Graph:
    return g_of(2, [(0, 1)])


# -------------------------------------------------------------- operations

def test_op1_on_k2_builds_paw():
    g = k2()
    x, y = apply_op1(g, 0)
    assert (x, y) == (2, 3)
    assert g.live_edges() == [(0, 1), (0, 2), (0, 3), (2, 3)]
    assert len(enumerate_pms(g, 3)) == 1


def test_op1_on_paw(paw):
    apply_op1(paw, 1)  # N(1) = {0, 2} is a clique
    assert paw.live_count == 6
    assert find_claw(paw) is None
    assert len(enumerate_pms(paw, 2)) == 1


def test_op1_rejects_non_simplicial():
    g = g_of(4, P4_EDGES)
    with pytest.raises(OperationError, match="not simplicial"):
        apply_op1(g, 1)


def test_op2_on_k2_builds_p4():
    g = k2()
    x, y = apply_op2(g, (0,))
    assert g.live_edges() == [(0, 1), (0, 2), (2, 3)]
    assert (x, y) == (2, 3)


def test_op2_on_paw(paw):
    apply_op2(paw, (1, 2))  # N(1)\C = N(2)\C = {0}
    assert paw.live_count == 6
    assert find_claw(paw) is None
    assert len(enumerate_pms(paw, 2)) == 1


def test_op2_on_p4():
    g = g_of(4, P4_EDGES)
    apply_op2(g, (1, 2))
    assert find_claw(g) is None
    assert len(enumerate_pms(g, 2)) == 1


def test_op2_rejects_invalid():
    with pytest.raises(OperationError, match="empty"):
        apply_op2(k2(), ())
    g = g_of(4, P4_EDGES)
    with pytest.raises(OperationError, match="not adjacent"):
        apply_op2(g, (0, 3))
    # star center: outside neighborhood {1, 2} of 0 is not a clique
    star = g_of(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(OperationError, match="non-adjacent outside"):
        apply_op2(star, (0, 3))


# ----------------------------------------------------------------- traces

def test_trace_text_roundtrip():
    trace = (InitStep(0, 1), Op1Step(0, 2, 3), Op2Step((2, 3), 4, 5))
    text = format_trace(trace)
    assert text == "INIT 0 1\nOP1 0 2 3\nOP2 4 5 2 3\n"
    assert parse_trace(text) == trace


def test_trace_parse_errors():
    with pytest.raises(OperationError, match="line 1"):
        parse_trace("WAT 0 1\n")
    with pytest.raises(OperationError, match="empty"):
        parse_trace("# nothing\n")


@pytest.mark.parametrize("text, message", [
    ("INIT 0\n", "malformed trace line 1: 'INIT 0'"),
    ("INIT 0 1 2\n", "malformed trace line 1: 'INIT 0 1 2'"),
    ("INIT 0 1\nOP1 0 2\n", "malformed trace line 2: 'OP1 0 2'"),
    ("INIT 0 1\nOP1 0 2 3 4\n", "malformed trace line 2: 'OP1 0 2 3 4'"),
    ("INIT 0 1\nOP2 2 3\n", "malformed trace line 2: 'OP2 2 3'"),
    ("INIT 0 1\nOP2\n", "malformed trace line 2: 'OP2'"),
    ("INIT 0 x\n", "malformed trace line 1: 'INIT 0 x'"),
    ("INIT 0 1\nOP1 0 2.0 3\n", "malformed trace line 2: 'OP1 0 2.0 3'"),
    ("INIT 0 1\nOP2 2 3 0 one\n", "malformed trace line 2: 'OP2 2 3 0 one'"),
    ("WAT 0 1\n", "malformed trace line 1: 'WAT 0 1'"),
    ("init 0 1\n", "malformed trace line 1: 'init 0 1'"),
    ("INIT 0 1 # the edge\n", "malformed trace line 1: 'INIT 0 1 # the edge'"),
    # comment and blank lines count, and the line is quoted as read
    ("# a\n\n  # b\nINIT 0 1\n \t\nOP1 0 2\n",
     "malformed trace line 6: 'OP1 0 2'"),
    ("INIT 0 1\r\n\r\n\tOP1  0 2 x \r\n",
     "malformed trace line 3: '\\tOP1  0 2 x '"),
    ("", "empty trace"),
    ("\n  \n# only comments\n", "empty trace"),
])
def test_trace_parse_error_messages(text, message):
    with pytest.raises(OperationError) as exc:
        parse_trace(text)
    assert str(exc.value) == message


def test_trace_parse_skips_comments_and_spacing():
    text = "# built by hand\n\n  INIT 3 1 \n\t# op1\nOP1 1\t4 5\nOP2 6 7   5\n"
    assert parse_trace(text) == (InitStep(3, 1), Op1Step(1, 4, 5),
                                 Op2Step((5,), 6, 7))


# ----------------------------------------------------------------- replay

def test_replay_init_only():
    g = replay((InitStep(0, 1),))
    assert g.live_edges() == [(0, 1)]


def test_replay_paw():
    g = replay((InitStep(0, 1), Op1Step(0, 2, 3)))
    assert g.live_edges() == [(0, 1), (0, 2), (0, 3), (2, 3)]


def test_replay_second_op1_on_old_vertex():
    # after Op1 at 0, vertex 1 still has the single neighbor 0
    g = replay((InitStep(0, 1), Op1Step(0, 2, 3), Op1Step(1, 4, 5)))
    assert g.live_count == 6
    assert find_claw(g) is None


def test_replay_names_failing_step():
    bad = (InitStep(0, 1), Op1Step(0, 2, 3),
           Op1Step(0, 4, 5))  # 0 no longer simplicial
    with pytest.raises(OperationError, match="step 2"):
        replay(bad)
    with pytest.raises(OperationError, match="step 1: vertex 7 not yet"):
        replay((InitStep(0, 1), Op1Step(7, 2, 3)))
    with pytest.raises(OperationError, match="must start with INIT"):
        replay((Op1Step(0, 1, 2),))
    with pytest.raises(OperationError, match="twice"):
        replay((InitStep(0, 1), Op1Step(0, 1, 2)))


@pytest.mark.parametrize("steps", [
    (InitStep(3, 3),),
    (InitStep(0, 1), Op1Step(0, 2, 3), Op2Step((2,), 4, 1)),
])
def test_replay_rejects_reused_ids_before_any_step(steps):
    # the one up-front check covers INIT's own pair and every fresh x, y
    with pytest.raises(OperationError) as exc:
        replay(steps)
    assert str(exc.value) == "trace introduces a vertex twice"


# -------------------------------------------------------------- generator

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 50), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_generator_soundness(steps, bias, seed):
    g, trace = random_gclass(steps, op2_bias=bias, seed=seed)
    assert g.live_count == 2 + 2 * steps
    assert find_claw(g) is None
    m = pmincf(g)
    assert verify_pm(g, m)
    assert is_unique_pm(g, m) is None
    g.check_symmetry()


def test_generator_deterministic():
    a = random_gclass(30, op2_bias=0.7, seed=42)
    b = random_gclass(30, op2_bias=0.7, seed=42)
    assert a[0].live_edges() == b[0].live_edges()
    assert a[1] == b[1]
    c = random_gclass(30, op2_bias=0.7, seed=43)
    assert a[1] != c[1]


@pytest.mark.parametrize("bias", [-0.1, 1.0000001, 7, float("nan"),
                                  float("inf")])
def test_generator_rejects_bias_outside_unit_interval(bias):
    with pytest.raises(ValueError, match=r"op2_bias must lie in \[0, 1\]"):
        random_gclass(3, op2_bias=bias)


def test_generator_accepts_bias_bounds():
    _, only_op1 = random_gclass(5, op2_bias=0, seed=2)
    _, only_op2 = random_gclass(5, op2_bias=1, seed=2)
    assert all(isinstance(s, Op1Step) for s in only_op1[1:])
    assert all(isinstance(s, Op2Step) for s in only_op2[1:])


def test_generator_zero_steps():
    g, trace = random_gclass(0, seed=1)
    assert g.live_edges() == [(0, 1)]
    assert trace == (InitStep(0, 1),)


def test_generator_op1_only_single_step():
    g, trace = random_gclass(1, op2_bias=0.0, seed=3)
    assert isinstance(trace[1], Op1Step)
    assert g.live_count == 4
    assert len(enumerate_pms(g, 2)) == 1  # paw-shaped


def test_generator_trace_replays():
    for seed in range(5):
        g, trace = random_gclass(40, op2_bias=0.5, seed=seed)
        r = replay(trace)
        assert r.n_total == g.n_total
        assert r.live_edges() == g.live_edges()


# -------------------------------------------------------------- decompose

def test_decompose_paw(paw):
    trace = decompose(paw)
    assert trace is not None
    assert trace[0] == InitStep(0, 3)
    assert trace[1] == Op1Step(0, 1, 2)
    assert replay(trace).live_edges() == paw.live_edges()


def test_decompose_p4():
    trace = decompose(g_of(4, P4_EDGES))
    assert trace is not None
    assert isinstance(trace[1], Op2Step)
    assert replay(trace).live_edges() == g_of(4, P4_EDGES).live_edges()


def test_decompose_rejections():
    assert decompose(g_of(4, C4_EDGES)) is None        # 2-connected, order 4
    assert decompose(g_of(3, [(0, 1), (1, 2)])) is None  # odd
    assert decompose(g_of(4, [(0, 1), (2, 3)])) is None  # disconnected
    # paw and K2 side by side: the peel empties the paw first here, and
    # the K2 first with the ids shifted; each ends in an empty clique
    assert decompose(g_of(6, PAW_EDGES + [(4, 5)])) is None
    shifted = [(u + 2, v + 2) for u, v in PAW_EDGES]
    assert decompose(g_of(6, [(0, 1)] + shifted)) is None
    assert decompose(Graph(0)) is None
    assert decompose(g_of(2, [(0, 1)])) is not None


def test_decompose_rejects_big_endblock_after_peeling():
    # both are rejected only after peeling starts: the K4 is left alone
    # once the path 3-4-5 is peeled, and the C4's pendant 4 hangs from 0,
    # whose other neighbors 1 and 3 are not adjacent
    k4_path = g_of(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                       (3, 4), (4, 5)])
    assert decompose(k4_path) is None
    c4_pendants = g_of(6, C4_EDGES + [(0, 4), (2, 5)])
    assert decompose(c4_pendants) is None


def test_decompose_triangle_chain_replays():
    g = replay((InitStep(0, 1), Op1Step(1, 2, 3), Op1Step(3, 4, 5)))
    trace = decompose(g)
    assert trace is not None
    r = replay(trace)
    assert r.n_total == g.n_total
    assert r.live_edges() == g.live_edges()


def test_decompose_matches_oracle_near_members():
    """Members with one edge added or deleted: decompose accepts exactly
    the connected claw-free results with a unique perfect matching."""
    checked = 0
    for seed in range(300):
        rng = random.Random(seed)
        g, _ = random_gclass(rng.randint(1, 19), op2_bias=rng.random(),
                             seed=seed)
        edges = g.live_edges()
        if rng.random() < 0.5:
            edges.pop(rng.randrange(len(edges)))
        else:
            present = set(edges)
            edges.append(rng.choice([e for e in combinations(range(g.n_total), 2)
                                     if e not in present]))
        h = g_of(g.n_total, edges)
        if not is_connected(h):
            continue
        member = find_claw(h) is None and len(enumerate_pms(h, 2)) == 1
        trace = decompose(h)
        assert (trace is not None) == member, (seed, edges)
        if trace is not None:
            assert replay(trace).live_edges() == h.live_edges()
        checked += 1
    assert checked > 200


def test_decompose_does_not_mutate(paw):
    decompose(paw)
    assert paw.live_count == 4 and paw.edge_count == 4


def test_removed_universal_vertex_changes_nothing():
    """A lazily removed vertex adjacent to every other one changes
    neither the decompose trace nor the is_unique_pm answer, on members
    and on members with up to three random chords."""
    rng = random.Random(0xDEAD)
    for seed in range(60):
        g, _ = random_gclass(rng.randint(1, 40), op2_bias=rng.random(), seed=seed)
        m = pmincf(g)
        n = g.n_total
        edges = g.live_edges()
        for _ in range(seed % 4):
            a, b = sorted(rng.sample(range(n), 2))
            if (a, b) not in edges:
                edges.append((a, b))
        plain = Graph.from_edges(n, edges)
        h = Graph.from_edges(n + 1, edges + [(v, n) for v in range(n)])
        h.remove_vertex(n)
        assert decompose(h) == decompose(plain)
        assert is_unique_pm(h, m) == is_unique_pm(plain, m)


def test_class_membership_equals_clawfree_unique(small_corpus):
    for entry in small_corpus:
        clawfree = find_claw(entry.graph) is None
        trace = decompose(entry.graph)
        assert (trace is not None) == (clawfree and entry.unique)
        if trace is not None:
            r = replay(trace)
            assert r.n_total == entry.graph.n_total
            assert r.live_edges() == entry.graph.live_edges()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_decompose_of_replay_succeeds(steps, bias, seed):
    g, trace = random_gclass(steps, op2_bias=bias, seed=seed)
    back = decompose(g)
    assert back is not None
    assert replay(back).live_edges() == g.live_edges()


def test_matched_bridge_along_decomposition(paw):
    """At every peel the removed pair is in the current unique matching,
    and in the pendant case its edge is a bridge."""
    for seed in range(8):
        g, _ = random_gclass(6, op2_bias=0.6, seed=seed)
        trace = decompose(g)
        assert trace is not None
        work = g.copy()
        for step in reversed(trace[1:]):
            (m,) = enumerate_pms(work, 2)
            assert (step.x, step.y) in m
            if isinstance(step, Op2Step):
                xy = (step.x, step.y) if step.x < step.y else (step.y, step.x)
                assert xy in find_bridges(work)
            work.remove_vertex(step.x)
            work.remove_vertex(step.y)
