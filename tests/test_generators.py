"""Family generators: validity and seed determinism."""

import sys

import pytest

from unipm import (Graph, IntervalRep, clique_chain, cograph_instance,
                   decide, decompose, enumerate_pms, find_claw,
                   interval_instance, is_connected, pmincf, replay,
                   split_instance, verify_pm)

from conftest import is_cograph_bruteforce, is_split_bruteforce, split_balance


def test_cograph_instances_are_cographs():
    for seed in range(10):
        g = cograph_instance(8, seed=seed)
        assert is_cograph_bruteforce(g)
        assert is_connected(g)


def test_cograph_deterministic():
    assert cograph_instance(9, seed=4).live_edges() == \
        cograph_instance(9, seed=4).live_edges()


def test_split_instances_are_split():
    for seed in range(10):
        g = split_instance(9, seed=seed)
        assert is_split_bruteforce(g) is not None


def test_split_unique_flag_enforces_balance():
    for seed in range(10):
        g = split_instance(10, seed=seed, unique=True)
        parts = is_split_bruteforce(g)
        assert parts is not None
        s, c = parts
        assert split_balance(g, s, c)
    with pytest.raises(ValueError, match="even"):
        split_instance(7, seed=0, unique=True)


@pytest.mark.parametrize("n", [2, 10, 64, 1000, 2000])
def test_split_unique_flag_builds_unique_instances(n):
    for seed in range(3):
        g = split_instance(n, seed=seed, unique=True)
        d = decide(g)
        assert (d.method, d.unique) == ("forcing", True)
        assert verify_pm(g, d.matching)
        if n <= 10:
            (m,) = enumerate_pms(g, 2)
            assert m == d.matching


def test_interval_instances_are_valid():
    for seed in range(10):
        rep = interval_instance(10, seed=seed)
        assert isinstance(rep, IntervalRep)  # constructor validates
        assert rep.n == 10
    assert interval_instance(0, seed=0).n == 0


def test_clique_chain_shape_and_membership():
    for k in (0, 1, 5, 20):
        g, trace = clique_chain(k)
        assert g.live_count == 2 * k + 2
        assert g.edge_count == 3 * k + 1
        assert find_claw(g) is None
        assert is_connected(g)
        assert replay(trace).live_edges() == g.live_edges()
        assert decompose(g) is not None
        m = pmincf(g)
        assert verify_pm(g, m)
    g, _ = clique_chain(4)
    assert len(enumerate_pms(g, 2)) == 1


@pytest.mark.parametrize("k", [0, 1, 2, 5, 1000])
def test_clique_chain_equals_edge_list_build(k):
    # the direct build must give the lists Graph.from_edges gives, in the
    # same order (pmincf's cursors walk them in that order) and with the
    # same capacity (criterion 5 times pmincf over them)
    edges = [(0, 1)]
    for t in range(1, k + 1):
        x, y = 2 * t, 2 * t + 1
        edges += [(x, x - 2), (x, x - 1), (x, y)]
    want = Graph.from_edges(2 * k + 2, edges)
    g, trace = clique_chain(k)
    assert g.adjacency == want.adjacency
    assert list(map(sys.getsizeof, g.adjacency)) == \
        list(map(sys.getsizeof, want.adjacency))
    assert g.removed == want.removed
    assert (g.live_count, g.edge_count) == (want.live_count, want.edge_count)
    g.check_symmetry()
    assert len(trace) == k + 1


def test_clique_chain_matching_is_the_fresh_pairs():
    g, _ = clique_chain(6)
    (m,) = enumerate_pms(g, 2)
    assert m.pairs == [(2 * t, 2 * t + 1) for t in range(7)]
