"""Command-line interface: dispatch, exit codes, reproducibility."""

import os
import random
import subprocess
import sys

import pytest

import unipm
from unipm import (GraphParseError, clique_chain, cli, decision, enumerate_pms,
                   find_claw, format_matching, gclass, graph, parse_graph,
                   parse_trace, random_gclass, replay, serialize_graph)
from unipm.cli import main
from unipm.graph import MAX_VERTICES

from conftest import (C4_EDGES, FLOWER_EDGES, NEAR_TRIANGLE_EDGES, PAW_EDGES,
                      SPIDER_EDGES, TWO_FANS_EDGES, fan_ladder, g_of,
                      mid_chorded_chain, random_connected_edge_set)


# 1500 nested choices for the oracle's search, one per matched pair
LONG_PATH = serialize_graph(g_of(3000, [(i, i + 1) for i in range(2999)]))


def write(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(content)
    return str(p)


@pytest.fixture
def paw_file(tmp_path):
    return write(tmp_path, "paw.g", serialize_graph(g_of(4, PAW_EDGES)))


@pytest.fixture
def c4_file(tmp_path):
    return write(tmp_path, "c4.g", serialize_graph(g_of(4, C4_EDGES)))


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def child_env():
    """The environment for a child process that imports this unipm."""
    return dict(os.environ,
                PYTHONPATH=os.path.dirname(os.path.dirname(unipm.__file__)))


# ------------------------------------------------------------------ check

def test_check_paw_unique(paw_file, capsys):
    code, out = run(capsys, ["check", paw_file])
    assert code == 0
    assert "verdict: unique" in out
    assert "method: forcing" in out
    assert "0 3\n1 2\n" in out


def test_check_c4_not_unique(c4_file, capsys):
    code, out = run(capsys, ["check", c4_file])
    assert code == 1
    assert "verdict: not-unique" in out
    assert "witness:" in out


@pytest.mark.parametrize("n, edges, method, matching", [
    # minimum degree 2, so degree-1 forcing cannot start; the peel
    # deletes the pendant triangles 2-3 and 4-5, then the edge 0-1
    (6, FLOWER_EDGES, "forcing", "0 1\n2 3\n4 5\n"),
    # a claw at 0 and nothing forced: the greedy matcher's answer
    (10, TWO_FANS_EDGES, "clawfree", "0 5\n1 2\n3 4\n6 7\n8 9\n"),
], ids=["flower", "two_fans"])
def test_check_unique_method(tmp_path, capsys, n, edges, method, matching):
    f = write(tmp_path, "g.g", serialize_graph(g_of(n, edges)))
    code, out = run(capsys, ["check", f])
    assert code == 0
    assert f"method: {method}\n" in out
    assert "verdict: unique" in out
    assert out.endswith(matching)


def test_check_clawed_graph_small_uses_oracle(tmp_path, capsys):
    star = write(tmp_path, "star.g", "4 3\n0 1\n0 2\n0 3\n")
    code, out = run(capsys, ["check", star])
    assert code == 1
    assert "method: edmonds" in out
    assert "reason: no perfect matching" in out


def test_check_clawed_graph_large_no_perfect_matching(tmp_path, capsys):
    # a star with 17 leaves: forcing and the greedy matcher both fail
    edges = "\n".join(f"0 {i}" for i in range(1, 18))
    f = write(tmp_path, "bigstar.g", f"18 17\n{edges}\n")
    code, out = run(capsys, ["check", f])
    assert code == 1
    assert "verdict: not-unique" in out
    assert "reason: no perfect matching" in out


def test_check_odd_order_components_not_unique(tmp_path, capsys):
    # two disjoint triangles: claw-free, even order, odd components
    f = write(tmp_path, "tri2.g", "6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
    code, out = run(capsys, ["check", f])
    assert code == 1
    assert "method: edmonds" in out
    assert "verdict: not-unique" in out
    assert "reason: no perfect matching" in out
    assert "witness:" not in out


def test_check_oracle_not_unique_witness(tmp_path, capsys):
    # clawed at 0 (leaves 2, 4, 5) and no forcing set: two perfect matchings
    f = write(tmp_path, "multi.g", "6 6\n0 2\n0 4\n0 5\n1 4\n1 5\n2 3\n")
    code, out = run(capsys, ["check", f])
    assert code == 1
    assert "method: clawfree" in out
    assert "verdict: not-unique" in out
    assert "witness: 0 4 1 5 0\n" in out
    assert "reason:" not in out


def test_check_oracle_unique(tmp_path, capsys):
    # clawed at 0 (leaves 1, 4, 5) and no forcing set; one perfect
    # matching, which the peel finds: the pendant triangle 2-3 leaves 4
    # pendant at 0, deleting 0-4 leaves 1 pendant at 6, and 5-7 is last
    edges = "0 1\n0 4\n0 5\n0 6\n1 6\n2 3\n2 4\n3 4\n5 6\n5 7\n6 7\n"
    f = write(tmp_path, "uni.g", "8 11\n" + edges)
    code, out = run(capsys, ["check", f])
    assert code == 0
    assert "method: forcing" in out
    assert "verdict: unique" in out
    assert out.endswith("0 4\n1 6\n2 3\n5 7\n")


def test_check_edmonds_when_greedy_matcher_fails(tmp_path, capsys):
    # no degree-1 vertex, and the greedy matcher strands vertex 5; a
    # perfect matching exists, so Edmonds' search finds one and the
    # verifier a second
    edges = [(0, 2), (0, 4), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5)]
    g = g_of(6, edges)
    assert cli.find_forcing_set(g) is None
    with pytest.raises(ValueError):
        cli.pmincf(g)
    code, out = run(capsys, ["check", write(tmp_path, "g.g", serialize_graph(g))])
    assert code == 1
    assert "method: edmonds" in out
    assert "verdict: not-unique" in out
    assert "witness: 1 3 2 5 1\n" in out


def test_check_decides_clawed_graphs_beyond_forcing(tmp_path, capsys):
    # clawed graphs on 17-20 vertices that forcing cannot decide: check
    # answers each as the oracle does, never undecided
    rng = random.Random(0x17)
    seen = set()
    done = 0
    while done < 40:
        n = 17 + done % 4
        edges = random_connected_edge_set(n, rng, rng.choice((0.15, 0.25)))
        g = g_of(n, edges)
        if find_claw(g) is None or cli.find_forcing_set(g) is not None:
            continue
        code, out = run(capsys, ["check", write(tmp_path, "g.g", serialize_graph(g))])
        pms = enumerate_pms(g, 2)
        fields = dict(ln.split(": ", 1) for ln in out.splitlines() if ": " in ln)
        seen.add(fields["method"])
        if len(pms) == 1:
            assert code == 0 and fields["verdict"] == "unique"
            assert out.endswith(format_matching(pms[0]))
        else:
            assert code == 1 and fields["verdict"] == "not-unique"
            assert ("witness" in fields) == bool(pms)
        done += 1
    assert seen == {"clawfree", "edmonds"}


def test_check_internal_error_exit_4(c4_file, capsys, monkeypatch):
    # a failed self-check of the verifier is a bug, not a verdict: one
    # error line and the internal-error code, no traceback
    def stalled(g, m):
        raise RuntimeError("verifier self-check failed")
    monkeypatch.setattr(decision, "is_unique_pm", stalled)
    code, out = run(capsys, ["check", c4_file])
    assert code == cli.EXIT_INTERNAL == 4
    assert out.count("error:") == 1
    assert out.endswith("error: verifier self-check failed\n")
    assert "verdict:" not in out


@pytest.mark.parametrize("make", [
    mid_chorded_chain,                          # the digraph DFS
    lambda: random_gclass(60, seed=3)[0],       # forced-pair peel
    lambda: g_of(10, TWO_FANS_EDGES),           # matched-bridge peel
    lambda: g_of(8, NEAR_TRIANGLE_EDGES),       # stalls, then the search
    lambda: fan_ladder(20)[0],                  # passes after a bridge round
], ids=["mid_chorded_chain", "<lambda>", "two_fans", "near_triangle",
        "fan_ladder"])
def test_check_same_answer_without_asserts(tmp_path, capsys, make):
    same_answer_without_asserts(
        capsys, ["check", write(tmp_path, "g.g", serialize_graph(make()))])


@pytest.mark.parametrize("command, content, expect", [
    ("decompose", serialize_graph(random_gclass(60, seed=3)[0]), 0),
    ("decompose", serialize_graph(g_of(6, C4_EDGES + [(0, 4), (2, 5)])), 1),
    ("replay", "INIT 0 1\nOP1 0 2 3\nOP2 4 5 2 3\n", 0),
    ("replay", "INIT 0 1\nOP1 0 2 3\nOP1 0 4 5\n", 2),
    ("replay", "INIT 0 1\nOP2 2 3\n", 2),
    ("force", serialize_graph(g_of(10, SPIDER_EDGES)), 0),
    ("force", serialize_graph(g_of(4, C4_EDGES)), 1),
    ("oracle", LONG_PATH, 0),
    ("interval", "4\n0 1 10\n1 2 3\n2 4 9\n3 5 6\n", 0),
], ids=["member", "non_member", "trace", "invalid_trace", "malformed_trace",
        "force_spider", "force_c4", "oracle_long_path", "interval"])
def test_class_ops_same_answer_without_asserts(tmp_path, capsys, command,
                                               content, expect):
    assert same_answer_without_asserts(
        capsys, [command, write(tmp_path, "in.txt", content)]) == expect


def same_answer_without_asserts(capsys, argv):
    # python -O strips every assert, so no answer may rest on one
    code, out = run(capsys, argv)
    proc = subprocess.run([sys.executable, "-O", "-m", "unipm.cli", *argv],
                          capture_output=True, text=True, env=child_env(),
                          timeout=60)

    def answer(text):
        return [ln for ln in text.splitlines() if not ln.startswith("elapsed_s:")]

    assert proc.returncode == code
    assert proc.stderr == ""
    assert answer(proc.stdout) == answer(out)
    return code


def test_check_parse_error_exit_2(tmp_path, capsys):
    f = write(tmp_path, "bad.g", "2 1\n0 2\n")
    code, out = run(capsys, ["check", f])
    assert code == 2
    assert "error:" in out and "out of range" in out


@pytest.mark.parametrize("header",
                         ["100000000000 0", f"{MAX_VERTICES + 1} 0\n"])
def test_check_rejects_huge_header(tmp_path, capsys, monkeypatch, header):
    # a 14-byte file must not make the parser allocate 10^11 vertices
    def no_graph(n):
        raise AssertionError(f"allocated a graph of {n} vertices")
    monkeypatch.setattr(graph, "Graph", no_graph)
    code, out = run(capsys, ["check", write(tmp_path, "huge.g", header)])
    assert code == 2
    assert out == (f"error: {header.split()[0]} vertices in header at line 1 "
                   f"exceed the limit of {MAX_VERTICES}\n")


def test_parse_accepts_header_at_limit(monkeypatch):
    monkeypatch.setattr(graph, "MAX_VERTICES", 4)
    assert parse_graph("4 0\n").n_total == 4
    with pytest.raises(GraphParseError, match="exceed the limit of 4"):
        parse_graph("5 0\n")


# ------------------------------------------------------------------ force

def test_force_paw(paw_file, capsys):
    code, out = run(capsys, ["force", paw_file])
    assert code == 0
    assert "forcing_order: 3,0 1,2" in out


def test_force_c4(c4_file, capsys):
    code, out = run(capsys, ["force", c4_file])
    assert code == 1
    assert "NO FORCING SET" in out


# ---------------------------------------------------------------- interval

def test_interval_unique(tmp_path, capsys):
    f = write(tmp_path, "iv.iv", "4\n0 1 10\n1 2 3\n2 4 9\n3 5 6\n")
    code, out = run(capsys, ["interval", f])
    assert code == 0
    assert "verdict: unique" in out
    assert "0 1\n2 3\n" in out


def test_interval_not_unique(tmp_path, capsys):
    f = write(tmp_path, "iv.iv", "4\n0 1 4\n1 2 6\n2 3 8\n3 5 9\n")
    code, out = run(capsys, ["interval", f])
    assert code == 1
    assert "witness:" in out


def test_interval_stuck_reason(tmp_path, capsys):
    # two disjoint intervals: the sweep finds no partner for vertex 0,
    # which proves there is no perfect matching
    f = write(tmp_path, "iv.iv", "2\n0 1 2\n1 3 4\n")
    code, out = run(capsys, ["interval", f])
    assert code == 1
    assert "method: interval" in out
    assert "verdict: not-unique" in out
    assert "reason: no perfect matching" in out
    assert "witness:" not in out


def test_interval_bad_rep(tmp_path, capsys):
    f = write(tmp_path, "iv.iv", "2\n0 1 4\n1 4 6\n")
    code, out = run(capsys, ["interval", f])
    assert code == 2
    assert "endpoints not distinct" in out


# ---------------------------------------------------------------- clawfree

def test_clawfree_stats(paw_file, capsys):
    # every PmincfStats counter, in field order, after elapsed_s
    code, out = run(capsys, ["clawfree", paw_file, "--stats"])
    assert code == 0
    assert out.split("elapsed_s: ")[1].split("\n", 1)[1] == (
        "cursor_advances: 7\nlm_nb_updates: 3\nreseeds: 1\ncommits: 2\n"
        "0 3\n1 2\n")


def test_clawfree_check_claw_rejects(tmp_path, capsys):
    star = write(tmp_path, "star.g", "4 3\n0 1\n0 2\n0 3\n")
    code, out = run(capsys, ["clawfree", star, "--check-claw"])
    assert code == 2
    assert "claw at 0" in out


def test_clawfree_stranded_vertex_on_connected_clawed_input(tmp_path, capsys):
    # connected, with a claw at 1: the greedy matcher strands vertex 0,
    # and the reason names it without claiming the input is disconnected
    f = write(tmp_path, "claw6.g", serialize_graph(g_of(
        6, [(0, 2), (0, 4), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5)])))
    code, out = run(capsys, ["clawfree", f])
    assert code == 2
    assert ("reason: vertex 0 is stranded: the input is disconnected or "
            "not claw-free\n") in out


# --------------------------------------------------------------- gen

def test_gen_gclass_reproducible(tmp_path, capsys):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["gen", "--family", "gclass", "--steps", "12", "--seed", "9",
                 "--out", out1]) == 0
    assert main(["gen", "--family", "gclass", "--steps", "12", "--seed", "9",
                 "--out", out2]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.g").read_bytes() == (tmp_path / "b.g").read_bytes()
    assert (tmp_path / "a.trace").read_bytes() == (tmp_path / "b.trace").read_bytes()
    g = parse_graph((tmp_path / "a.g").read_text())
    t = parse_trace((tmp_path / "a.trace").read_text())
    assert replay(t).live_edges() == g.live_edges()


def test_gen_other_families(tmp_path, capsys):
    for family, extra in [("cograph", ["-n", "8"]), ("split", ["-n", "8"]),
                          ("interval", ["-n", "6"]), ("clique-chain", ["--steps", "5"])]:
        out = str(tmp_path / family)
        code = main(["gen", "--family", family, "--seed", "3", "--out", out] + extra)
        assert code == 0
    capsys.readouterr()
    assert (tmp_path / "interval.iv").exists()
    assert (tmp_path / "clique-chain.trace").exists()


def test_gen_gclass_bias_outside_unit_interval_is_input_error(tmp_path, capsys):
    out = str(tmp_path / "g")
    code, text = run(capsys, ["gen", "--family", "gclass", "--op2-bias", "7",
                              "--steps", "3", "--out", out])
    assert code == 2
    assert text == "error: op2_bias must lie in [0, 1], got 7.0\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_unique_split_odd_n_is_input_error(tmp_path, capsys):
    out = str(tmp_path / "odd")
    code, text = run(capsys, ["gen", "--family", "split", "--unique",
                              "-n", "5", "--out", out])
    assert code == 2
    assert text == "error: unique-PM instances need even n\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("family, size, order", [
    ("interval", ["-n", "100000000000"], 100000000000),
    ("cograph", ["-n", str(MAX_VERTICES + 1)], MAX_VERTICES + 1),
    ("split", ["-n", str(MAX_VERTICES + 1)], MAX_VERTICES + 1),
    ("gclass", ["--steps", str(MAX_VERTICES // 2)], MAX_VERTICES + 2),
    ("clique-chain", ["--steps", "10000000000"], 20000000002),
    ("interval", ["-n", str(MAX_VERTICES)], MAX_VERTICES),
    ("clique-chain", ["--steps", str(MAX_VERTICES // 2 - 1)], MAX_VERTICES),
])
def test_gen_bounds_order_before_building(tmp_path, capsys, monkeypatch,
                                          family, size, order):
    # a stub stands in for each generator, so no order here is ever built
    def stub(*args, **kwargs):
        raise ValueError("generator reached")
    for name in ("random_gclass", "clique_chain", "cograph_instance",
                 "split_instance", "interval_instance"):
        monkeypatch.setattr(cli, name, stub)
    out = str(tmp_path / "huge")
    code, text = run(capsys, ["gen", "--family", family, *size, "--out", out])
    expected = (f"{family} of order {order} exceeds the limit of {MAX_VERTICES}"
                if order > MAX_VERTICES else "generator reached")
    assert (code, text) == (2, f"error: {expected}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, path", [
    (["gen", "--family", "cograph", "--out", "{d}/x"], "{d}/x.g"),
])
def test_unwritable_output_exit_2(tmp_path, capsys, argv, path):
    d = str(tmp_path / "no-such-dir")
    code, out = run(capsys, [a.format(d=d) for a in argv])
    assert code == 2
    assert out.startswith(f"error: cannot write {path.format(d=d)}: ")
    assert out.count("\n") == 1


# ---------------------------------------------------------- decompose

def test_decompose_paw(paw_file, capsys):
    code, out = run(capsys, ["decompose", paw_file])
    assert code == 0
    assert out.startswith("INIT 0 3\n")
    assert "OP1 0 1 2" in out


def test_decompose_c4(c4_file, capsys):
    code, out = run(capsys, ["decompose", c4_file])
    assert code == 1
    assert "NOT IN CLASS" in out


@pytest.mark.parametrize("trace, n", [
    ("INIT 0 100000000000\n", 100000000001),
    (f"INIT 0 1\nOP1 0 2 {MAX_VERTICES}\n", MAX_VERTICES + 1),
], ids=["init", "op1"])
def test_replay_rejects_huge_vertex_id(tmp_path, capsys, monkeypatch, trace,
                                       n):
    # a 20-byte trace must not make replay allocate 10^11 vertices
    def no_graph(n):
        raise AssertionError(f"allocated a graph of {n} vertices")
    monkeypatch.setattr(gclass, "Graph", no_graph)
    code, out = run(capsys, ["replay", write(tmp_path, "huge.trace", trace)])
    assert code == 2
    assert out == (f"error: trace needs {n} vertices, more than the limit "
                   f"of {MAX_VERTICES}\n")


def test_replay_accepts_ids_below_limit(monkeypatch):
    monkeypatch.setattr(gclass, "MAX_VERTICES", 4)
    assert replay(parse_trace("INIT 0 3\n")).n_total == 4
    with pytest.raises(gclass.OperationError, match="more than the limit of 4"):
        replay(parse_trace("INIT 0 4\n"))


def test_replay_roundtrip(paw_file, tmp_path, capsys):
    code, out = run(capsys, ["decompose", paw_file])
    trace_file = write(tmp_path, "paw.trace", out)
    code, out = run(capsys, ["replay", trace_file])
    assert code == 0
    assert parse_graph(out).live_edges() == g_of(4, PAW_EDGES).live_edges()


# ------------------------------------------------------------- oracle

def test_oracle_paw(paw_file, capsys):
    code, out = run(capsys, ["oracle", paw_file])
    assert code == 0
    assert "pm_count: 1" in out
    assert "cap_reached: false" in out
    assert "matching_0: 0,3 1,2" in out


def test_oracle_c4_cap(c4_file, capsys):
    code, out = run(capsys, ["oracle", c4_file, "--cap", "2"])
    assert code == 0
    assert "pm_count: 2" in out
    assert "cap_reached: true" in out


def test_oracle_long_path(tmp_path, capsys):
    # the search must not recurse once per pair
    code, out = run(capsys, ["oracle", write(tmp_path, "path.g", LONG_PATH)])
    assert code == 0
    assert "pm_count: 1\ncap_reached: false\n" in out


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_oracle_rejects_cap_before_reading(paw_file, capsys, monkeypatch, cap):
    def no_read(path):
        raise AssertionError("oracle read its file before checking --cap")
    monkeypatch.setattr(cli, "_read_file", no_read)
    code, out = run(capsys, ["oracle", paw_file, "--cap", cap])
    assert code == 2
    assert out == "error: --cap must be positive\n"


# -------------------------------------------------------------- usage

def test_unknown_subcommand_exit_2(capsys):
    # the removed bench command fails like any unknown name
    for command in ("frobnicate", "bench"):
        assert main([command]) == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{command}'" in err
        assert "Traceback" not in err


def test_closed_stdout_exits_2_quietly(tmp_path):
    # over 1 MB of matching cannot all sit in the pipe, so writes fail
    # once the reader has closed its end
    path = write(tmp_path, "chain.g", serialize_graph(clique_chain(100_000)[0]))
    proc = subprocess.Popen([sys.executable, "-m", "unipm.cli", "check", path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env())
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == ""  # no traceback, no "Exception ignored" at exit


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc to count open descriptors")
def test_closed_stdout_leaks_no_descriptor(paw_file, monkeypatch):
    # each call writes to a pipe whose reader is already closed, so
    # main sends its stdout to devnull; the devnull descriptor it opened
    # for that must be closed again
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["check", paw_file]) == 2
    monkeypatch.undo()
    assert len(os.listdir("/proc/self/fd")) == before


def test_missing_file_exit_2(capsys):
    code, out = run(capsys, ["check", "/nonexistent/x.g"])
    assert code == 2
