"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they pass.

Exhaustive coverage note: "all connected graphs with n <= 8" appears in
two criteria, but there are 2^28 labeled graphs on 8 vertices, far
beyond any Python sweep.  Criteria 4 and 6 therefore run exhaustively
over n <= 6 (26743 connected graphs) and add a large seeded random n=8
sample, mirroring the sampling approach criterion 1 itself prescribes
for n=8.
"""

import gc
import random
import statistics
import time

from unipm import (Graph, IntervalPMError, Matching, PmincfStats,
                   clique_chain, decompose, enumerate_pms, find_bridges,
                   find_claw, find_forcing_set, interval_instance,
                   intersection_graph, interval_pm, is_unique_pm, kotzig_peel,
                   pmincf, random_gclass, replay, verify_pm)

from conftest import (is_cograph_bruteforce, is_split_bruteforce,
                      iter_connected_edge_sets, split_balance)

INTERVAL_SAMPLE_SIZE = 10_000
GCLASS_SAMPLE_SIZE = 1_000
TRACE_SAMPLE_SIZE = 1_000


def report(criterion: int, detail: str) -> None:
    print(f"\nCRITERION {criterion}: PASS — {detail}")


def test_criterion_1_oracle_triangulation(small_corpus, n8_sample):
    """is_unique_pm = none <=> oracle count = 1 <=> kotzig_peel, with zero
    disagreements, on exhaustive n in {2,4,6} plus 10^4 random n=8."""
    start = time.time()
    checked = 0
    for entry in small_corpus:
        if not entry.pms:
            continue
        m = entry.pms[0]
        unique = entry.unique
        assert (is_unique_pm(entry.graph, m) is None) == unique, entry.edges
        assert kotzig_peel(entry.graph, m) == unique, entry.edges
        checked += 1
    sampled = 0
    for g, pms in n8_sample:
        if not pms:
            continue
        m = pms[0]
        unique = len(pms) == 1
        assert (is_unique_pm(g, m) is None) == unique
        assert kotzig_peel(g, m) == unique
        sampled += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"criterion 1 exceeded 5 minutes ({elapsed:.0f}s)"
    report(1, f"zero disagreements on {checked} exhaustive (n<=6) + "
              f"{sampled} sampled (n=8) instances in {elapsed:.1f}s")


def test_criterion_2_forcing_on_cographs_and_splits(small_corpus, n8_sample):
    """Forcing succeeds exactly on unique-PM cographs/split graphs, returns
    the oracle matching, and unique split instances are balanced."""
    cograph_hits = split_hits = 0
    entries = [(e.graph, e.pms) for e in small_corpus] + list(n8_sample)
    for g, pms in entries:
        cograph = is_cograph_bruteforce(g)
        parts = is_split_bruteforce(g)
        if not cograph and parts is None:
            continue
        unique = len(pms) == 1
        cert = find_forcing_set(g)
        assert (cert is not None) == unique
        if cert is not None:
            assert Matching(cert.forced) == pms[0]
        if cograph:
            cograph_hits += 1
        if parts is not None:
            split_hits += 1
            if unique:
                assert split_balance(g, parts[0], parts[1])
    report(2, f"zero exceptions on {cograph_hits} cographs and "
              f"{split_hits} split graphs")


def test_criterion_3_interval_rule_exact():
    """On random representations whose intersection graph has a unique
    perfect matching, the sweep returns exactly that matching."""
    unique_hits = 0
    for i in range(INTERVAL_SAMPLE_SIZE):
        n = 2 * (i % 5 + 1)  # n in {2,4,6,8,10}
        rep = interval_instance(n, seed=i)
        g = intersection_graph(rep)
        pms = enumerate_pms(g, 2)
        try:
            m = interval_pm(rep)
        except IntervalPMError:
            assert len(pms) != 1, f"sweep stuck on unique instance seed={i}"
            continue
        if len(pms) == 1:
            unique_hits += 1
            assert m == pms[0], f"wrong matching at seed={i}"
    assert unique_hits > 1000
    report(3, f"exact matching on all {unique_hits} unique-PM instances "
              f"out of {INTERVAL_SAMPLE_SIZE} sampled representations")


def test_criterion_4_pmincf_validity(n8_sample):
    """verify_pm(g, pmincf(g)) with commit-time extension assertions armed:
    exhaustive claw-free n <= 6, sampled claw-free n = 8, and gclass
    members up to 200 vertices."""
    exhaustive = 0
    for n in (2, 4, 6):
        for edges in iter_connected_edge_sets(n):
            g = Graph.from_edges(n, edges)
            if find_claw(g) is not None:
                continue
            m = pmincf(g, debug_checks=True, check_connectivity=True)
            assert verify_pm(g, m)
            exhaustive += 1
    sampled = 0
    for g, _ in n8_sample:
        if find_claw(g) is not None:
            continue
        m = pmincf(g, debug_checks=True)
        assert verify_pm(g, m)
        sampled += 1
    members = 0
    rng = random.Random(0xC4)
    for i in range(GCLASS_SAMPLE_SIZE):
        steps = rng.randint(0, 99)  # up to 200 vertices
        g, _ = random_gclass(steps, op2_bias=rng.random(), seed=i)
        stats = PmincfStats()
        m = pmincf(g, stats=stats, debug_checks=True,
                   check_connectivity=(i < 50))
        assert verify_pm(g, m)
        assert stats.cursor_advances <= 2 * g.edge_count
        members += 1
    report(4, f"valid matchings, no extension available at any commit: "
              f"{exhaustive} exhaustive + {sampled} sampled claw-free + "
              f"{members} class members")


def _pmincf_runs(family: str, sizes: list[int], repetitions: int,
                 seed: int) -> list[list[tuple[int, float, int]]]:
    """Per size, one (m, wall seconds, cursor advances) per repetition.

    pmincf itself raises RuntimeError if the cursors advance past the
    live adjacency lengths, which is 2m here (no vertex is removed).
    Each instance is matched once untimed as a warm-up.  Repetitions are
    interleaved round-robin across the sizes and cyclic GC is paused
    while timing, so a transient slowdown of the host hits every size
    instead of silently inflating one size's whole block; per-size
    medians then stay comparable.
    """
    instances = []
    for target_m in sizes:
        if family == "clique-chain":
            g, _ = clique_chain(max(0, (target_m - 1) // 3))
        else:
            g, _ = random_gclass(max(0, target_m // 3), op2_bias=0.5,
                                 seed=seed)
        pmincf(g)  # warm-up, excluded from timing
        instances.append(g)
    runs: list[list[tuple[int, float, int]]] = [[] for _ in instances]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repetitions):
            for g, size_runs in zip(instances, runs):
                stats = PmincfStats()
                start = time.perf_counter()
                pmincf(g, stats=stats)
                elapsed = time.perf_counter() - start
                size_runs.append((g.edge_count, elapsed,
                                  stats.cursor_advances))
    finally:
        if gc_was_enabled:
            gc.enable()
    return runs


def test_criterion_5_pmincf_linearity():
    """Cursor advances <= 2m on every run (hard); median wall time at 2m
    is <= 3x the time at m (soft); whole sweep under 2 minutes."""
    start = time.time()
    sizes = [10_000 * 2 ** i for i in range(8)]  # 10^4 .. 1.28*10^6
    reps = 5
    worst = {}
    for family in ("clique-chain", "gclass"):
        runs = _pmincf_runs(family, sizes, repetitions=reps, seed=5)
        for size_runs in runs:
            for m, _, advances in size_runs:
                assert advances <= 2 * m, f"{family} m={m}: advances {advances}"
        medians = [statistics.median(t for _, t, _ in size_runs)
                   for size_runs in runs]
        ratios = [b / a for a, b in zip(medians, medians[1:])]
        worst[family] = max(ratios)
        assert all(r <= 3.0 for r in ratios), f"{family} ratios {ratios}"
    elapsed = time.time() - start
    assert elapsed < 120, f"criterion 5 sweep exceeded 2 minutes ({elapsed:.0f}s)"
    report(5, "advances <= 2m on every run; worst per-doubling time ratio "
              f"{max(worst.values()):.2f} <= 3.0; sweep {elapsed:.1f}s")


def test_criterion_6_constructive_characterization(small_corpus, n8_sample):
    """decompose succeeds iff (claw-free and unique PM); replay(decompose(g))
    rebuilds g exactly; decompose(replay(t)) succeeds for generated traces."""
    equiv = 0
    for entry in small_corpus:
        clawfree = find_claw(entry.graph) is None
        trace = decompose(entry.graph)
        assert (trace is not None) == (clawfree and entry.unique), entry.edges
        if trace is not None:
            r = replay(trace)
            assert r.n_total == entry.graph.n_total
            assert r.live_edges() == entry.graph.live_edges()
        equiv += 1
    sampled = 0
    for g, pms in n8_sample:
        clawfree = find_claw(g) is None
        trace = decompose(g)
        assert (trace is not None) == (clawfree and len(pms) == 1)
        if trace is not None:
            assert replay(trace).live_edges() == g.live_edges()
        sampled += 1
    rng = random.Random(0xC6)
    roundtrips = 0
    for i in range(TRACE_SAMPLE_SIZE):
        steps = rng.randint(0, 100)
        g, trace = random_gclass(steps, op2_bias=rng.random(), seed=i)
        back = decompose(g)
        assert back is not None, f"seed={i}"
        assert replay(back).live_edges() == g.live_edges()
        roundtrips += 1
    report(6, f"equivalence + exact rebuild on {equiv} exhaustive and "
              f"{sampled} sampled graphs; {roundtrips} generated traces "
              f"decompose back")


def test_criterion_7_kotzig_invariant(small_corpus, n8_sample):
    """Every unique-PM instance encountered carries a matched bridge."""
    checked = 0
    for entry in small_corpus:
        if entry.unique:
            bridges = find_bridges(entry.graph)
            assert any(p in bridges for p in entry.pms[0].pairs), entry.edges
            checked += 1
    for g, pms in n8_sample:
        if len(pms) == 1:
            bridges = find_bridges(g)
            assert any(p in bridges for p in pms[0].pairs)
            checked += 1
    for i in range(200):
        rep = interval_instance(2 * (i % 5 + 1), seed=i)
        g = intersection_graph(rep)
        pms = enumerate_pms(g, 2)
        if len(pms) == 1:
            bridges = find_bridges(g)
            assert any(p in bridges for p in pms[0].pairs)
            checked += 1
    for i in range(100):
        g, _ = random_gclass(25, seed=i)
        (m,) = enumerate_pms(g, 2) if g.live_count <= 16 else (pmincf(g),)
        bridges = find_bridges(g)
        assert any(p in bridges for p in m.pairs)
        checked += 1
    report(7, f"matched bridge present in all {checked} unique-PM instances")


def test_criterion_8_forcing_incompleteness_witness(small_corpus):
    """Some graph has a unique perfect matching, minimum degree >= 2, and
    no forcing set: the elimination method is incomplete in general."""
    witnesses = []
    for entry in small_corpus:
        if not entry.unique:
            continue
        g = entry.graph
        if min(map(len, g.adjacency)) < 2:  # no vertex is removed
            continue
        if find_forcing_set(g) is None:
            witnesses.append(entry)
    assert witnesses, "no incompleteness witness found with n <= 6"
    w = witnesses[0]
    assert is_unique_pm(w.graph, w.pms[0]) is None
    report(8, f"{len(witnesses)} graphs with a unique matching, min degree "
              f">= 2, and no forcing set; first: n={w.n}, edges={list(w.edges)}")
