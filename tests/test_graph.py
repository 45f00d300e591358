"""Graph representation, text I/O, and structural primitives."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipm import (Graph, GraphParseError, Matching, find_bridges, find_claw,
                   format_matching, is_clique, is_connected, is_simplicial,
                   parse_graph, serialize_graph)

from conftest import (C4_EDGES, C6_EDGES, K4_EDGES, P4_EDGES, PAW_EDGES,
                      STAR_EDGES, g_of, is_cograph_bruteforce,
                      is_split_bruteforce, iter_connected_edge_sets,
                      random_connected_edge_set)


# ---------------------------------------------------------------- parsing

def test_parse_k2():
    g = parse_graph("2 1\n0 1\n")
    assert g.n_total == 2 and g.edge_count == 1
    assert g.live_edges() == [(0, 1)]


def test_parse_p4():
    g = parse_graph("4 3\n0 1\n1 2\n2 3\n")
    assert g.n_total == 4 and g.edge_count == 3


def test_parse_out_of_range():
    with pytest.raises(GraphParseError, match="vertex 2 out of range at line 2"):
        parse_graph("2 1\n0 2\n")


def test_parse_self_loop():
    with pytest.raises(GraphParseError, match="self-loop at line 3"):
        parse_graph("3 2\n0 1\n2 2\n")


def test_parse_malformed_header():
    with pytest.raises(GraphParseError, match="header"):
        parse_graph("banana\n")


def test_parse_missing_edges():
    with pytest.raises(GraphParseError, match="expected 2 edges, found 1"):
        parse_graph("3 2\n0 1\n")


def test_parse_comments_and_duplicates():
    g = parse_graph("# fixture\n3 3\n0 1\n# mid comment\n0 1\n1 2\n")
    assert g.edge_count == 2  # duplicate line collapsed


def test_parse_empty_graph():
    g = parse_graph("0 0\n")
    assert g.n_total == 0 and g.live_count == 0 and g.edge_count == 0


@pytest.mark.parametrize("text, message", [
    ("3 1\n0 1\n# ok\n1 2\n", "unexpected extra edge at line 4"),
    ("3 1\n0\n", "malformed edge at line 2"),
    ("3 1\n\n0 1 2\n", "malformed edge at line 3"),
    ("3 1\n0 x\n", "malformed edge at line 2"),
    ("# c\n-1 0\n", "negative count in header at line 2"),
    ("3 -1\n", "negative count in header at line 1"),
    ("", "missing header"),
    ("# only a comment\n\n  # and another\n", "missing header"),
    ("3 1\n0 3\n", "vertex 3 out of range at line 2"),
    ("3 1\n1 -1\n", "vertex -1 out of range at line 2"),
    ("3 1\n5 -1\n", "vertex 5 out of range at line 2"),  # first endpoint first
])
def test_parse_error_paths(text, message):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert str(exc.value) == message


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 9), st.data())
def test_parse_matches_from_edges(n, data):
    """Comments, blank lines and repeated edges change nothing: the parsed
    graph equals from_edges on the same edge list, adjacency order too."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = data.draw(st.lists(pair, max_size=3 * n))
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["", "  ", "#", "# 0 1"])))
    g = parse_graph("\n".join(lines) + "\n")
    h = Graph.from_edges(n, edges)
    assert g.adjacency == h.adjacency and g.removed == h.removed
    assert g.edge_count == h.edge_count == len({frozenset(e) for e in edges})


def test_roundtrip_small():
    for edges, n in [(PAW_EDGES, 4), (C6_EDGES, 6), ([], 3)]:
        g = g_of(n, edges)
        assert parse_graph(serialize_graph(g)).live_edges() == g.live_edges()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.data())
def test_roundtrip_random(n, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    edges = random_connected_edge_set(n, rng)
    g = Graph.from_edges(n, edges)
    g2 = parse_graph(serialize_graph(g))
    assert g2.n_total == g.n_total
    assert g2.live_edges() == g.live_edges()


# ---------------------------------------------------------------- mutation

def test_removal_bookkeeping(paw):
    paw.remove_vertex(0)
    assert paw.live_count == 3
    assert paw.edge_count == 1  # only 1-2 remains
    assert [w for w in paw.adjacency[1] if not paw.removed[w]] == [2]
    with pytest.raises(ValueError):
        paw.remove_vertex(0)
    paw.check_symmetry()


def test_add_vertex_and_edge(paw):
    x = paw.add_vertex()
    assert x == 4
    paw.add_edge(x, 3)
    assert paw.has_edge(3, x)
    with pytest.raises(ValueError):
        paw.add_edge(x, 3)
    with pytest.raises(ValueError):
        paw.add_edge(x, x)
    paw.check_symmetry()


def test_copy_is_independent(paw):
    c = paw.copy()
    c.remove_vertex(3)
    assert paw.live_count == 4 and c.live_count == 3
    # the copy owns its lists: an edge added to it never reaches paw
    assert all(a is not b for a, b in zip(c.adjacency, paw.adjacency))
    c.add_edge(1, c.add_vertex())
    assert paw.adjacency == [[1, 2, 3], [0, 2], [0, 1], [0]]
    assert paw.n_total == 4 and paw.edge_count == 4
    paw.check_symmetry()


def test_view_shares_lists_not_removals(paw):
    v = paw.view()
    assert v.adjacency is paw.adjacency and v.removed is not paw.removed
    v.remove_vertex(0)
    assert v.live_count == 3 and v.edge_count == 1
    v.check_symmetry()
    assert paw.removed == [False] * 4
    assert paw.live_count == 4 and paw.edge_count == 4
    assert [w for w in paw.adjacency[1] if not paw.removed[w]] == [0, 2]
    paw.check_symmetry()


# ---------------------------------------------------------------- claws

def test_claw_on_star():
    assert find_claw(g_of(4, STAR_EDGES)) == (0, (1, 2, 3))


def test_k4_claw_free():
    assert find_claw(g_of(4, K4_EDGES)) is None


def test_paw_claw_free(paw):
    assert find_claw(paw) is None


def _claw_brute(g):
    from itertools import combinations
    for u in g.live_vertices():
        nbrs = sorted(w for w in g.adjacency[u] if not g.removed[w])
        for trio in combinations(nbrs, 3):
            if all(not g.has_edge(a, b) for a, b in combinations(trio, 2)):
                return True
    return False


def test_claw_matches_bruteforce_exhaustive():
    for n in (4, 5):
        for edges in iter_connected_edge_sets(n):
            g = Graph.from_edges(n, edges)
            assert (find_claw(g) is None) == (not _claw_brute(g))


@settings(max_examples=80, deadline=None)
@given(st.integers(6, 8), st.integers(0, 10**6))
def test_claw_matches_bruteforce_random(n, seed):
    g = Graph.from_edges(n, random_connected_edge_set(n, random.Random(seed)))
    assert (find_claw(g) is None) == (not _claw_brute(g))


# ------------------------------------------------------ simplicial/clique

def test_simplicial_examples(paw):
    assert is_simplicial(g_of(2, [(0, 1)]), 0)
    assert not is_simplicial(g_of(4, P4_EDGES), 1)
    assert is_simplicial(paw, 3)          # single neighbor
    assert is_simplicial(paw, 1)          # N(1) = {0, 2}, adjacent
    paw.remove_vertex(3)
    with pytest.raises(ValueError):
        is_simplicial(paw, 3)


def test_clique_examples(paw):
    assert is_clique(paw, set())
    assert is_clique(paw, {0, 1, 2})
    assert not is_clique(g_of(4, P4_EDGES), {0, 1, 2})
    assert is_clique(paw, {3})


# ---------------------------------------------------------------- bridges

def test_bridges_examples(paw):
    assert find_bridges(g_of(4, P4_EDGES)) == {(0, 1), (1, 2), (2, 3)}
    assert find_bridges(g_of(4, C4_EDGES)) == set()
    assert find_bridges(paw) == {(0, 3)}


def _bridges_definitional(g):
    out = set()
    for u, v in g.live_edges():
        h = g.copy()
        h.adjacency[u] = [w for w in h.adjacency[u] if w != v]
        h.adjacency[v] = [w for w in h.adjacency[v] if w != u]
        h.edge_count -= 1
        before = len([c for c in _comps(g)])
        after = len([c for c in _comps(h)])
        if after > before:
            out.add((u, v))
    return out


def _comps(g):
    from unipm import connected_components
    return connected_components(g)


def test_bridges_match_definition_exhaustive():
    for n in (2, 3, 4, 5):
        for edges in iter_connected_edge_sets(n):
            g = Graph.from_edges(n, edges)
            assert find_bridges(g) == _bridges_definitional(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 8), st.integers(0, 10**6))
def test_bridges_match_definition_random(n, seed):
    g = Graph.from_edges(n, random_connected_edge_set(n, random.Random(seed)))
    assert find_bridges(g) == _bridges_definitional(g)


def test_bridges_respect_removal(paw):
    paw.remove_vertex(3)
    assert find_bridges(paw) == set()  # triangle remains


# ------------------------------------------------------- class predicates

def test_cograph_bruteforce(paw):
    assert not is_cograph_bruteforce(g_of(4, P4_EDGES))
    assert is_cograph_bruteforce(g_of(4, K4_EDGES))
    assert is_cograph_bruteforce(paw)


def test_split_bruteforce(paw):
    parts = is_split_bruteforce(paw)
    assert parts is not None
    s, c = parts
    assert s | c == {0, 1, 2, 3} and not s & c
    assert is_clique(paw, c)
    assert all(not paw.has_edge(a, b) for a in s for b in s if a < b)
    assert is_split_bruteforce(g_of(4, C4_EDGES)) is None
    k2 = is_split_bruteforce(g_of(2, [(0, 1)]))
    assert k2 is not None


def test_connected(paw):
    assert is_connected(paw)
    assert not is_connected(g_of(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(0))


# --------------------------------------------------------------- matching

def test_matching_canonical_and_lookup():
    m = Matching([(3, 0), (2, 1)])
    assert m.pairs == [(0, 3), (1, 2)]
    assert m.partner[3] == 0 and m.partner[1] == 2
    assert (0, 3) in m and (3, 0) in m and (0, 1) not in m
    assert format_matching(m) == "0 3\n1 2\n"


def test_matching_rejects_overlap():
    with pytest.raises(ValueError):
        Matching([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Matching([(0, 0)])
