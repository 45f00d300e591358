"""Command-line interface: dispatch, exit codes, reproducibility."""

import os
import random
import subprocess
import sys

import pytest

import unipm
from unipm import (AlternatingCycleWitness, cli, enumerate_pms, find_claw,
                   format_matching, parse_graph, parse_trace, random_gclass,
                   replay, serialize_graph)
from unipm.cli import main

from conftest import (C4_EDGES, FLOWER_EDGES, PAW_EDGES, g_of,
                      mid_chorded_chain, random_connected_edge_set)


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


def test_check_flower_uses_clawfree_path(tmp_path, capsys):
    f = write(tmp_path, "flower.g", serialize_graph(g_of(6, FLOWER_EDGES)))
    code, out = run(capsys, ["check", f])
    assert code == 0
    assert "method: clawfree" in out
    assert "verdict: unique" in out


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
    # clawed at 0 (leaves 1, 4, 5) and no forcing set; one perfect matching
    edges = "0 1\n0 4\n0 5\n0 6\n1 6\n2 3\n2 4\n3 4\n5 6\n5 7\n6 7\n"
    f = write(tmp_path, "uni.g", "8 11\n" + edges)
    code, out = run(capsys, ["check", f])
    assert code == 0
    assert "method: clawfree" in out
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


@pytest.mark.parametrize("name, content, fake, message", [
    ("paw.g", "4 4\n0 1\n0 2\n1 2\n0 3\n", AlternatingCycleWitness((0, 1, 2, 3, 0)),
     "forcing certificate contradicts verifier"),
])
def test_check_verifier_contradiction_raises(tmp_path, capsys, monkeypatch,
                                             name, content, fake, message):
    # a verifier that disagrees with forcing's own proof is a bug, not a
    # verdict: one error line and the internal-error code, no traceback
    monkeypatch.setattr(cli, "is_unique_pm", lambda g, m: fake)
    code, out = run(capsys, ["check", write(tmp_path, name, content)])
    assert code == cli.EXIT_INTERNAL == 4
    assert f"error: {message}\n" in out
    assert "verdict:" not in out


@pytest.mark.parametrize("make", [mid_chorded_chain,
                                  lambda: random_gclass(60, seed=3)[0]])
def test_check_same_answer_without_asserts(tmp_path, capsys, make):
    # python -O strips every assert, so no verdict may rest on one
    f = write(tmp_path, "g.g", serialize_graph(make()))
    code, out = run(capsys, ["check", f])
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(unipm.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-m", "unipm.cli", "check", f],
                          capture_output=True, text=True, env=env, timeout=60)

    def answer(text):
        return [ln for ln in text.splitlines() if not ln.startswith("elapsed_s:")]

    assert proc.returncode == code
    assert proc.stderr == ""
    assert answer(proc.stdout) == answer(out)


def test_check_parse_error_exit_2(tmp_path, capsys):
    f = write(tmp_path, "bad.g", "2 1\n0 2\n")
    code, out = run(capsys, ["check", f])
    assert code == 2
    assert "error:" in out and "out of range" in out


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
    # two disjoint intervals: the sweep finds no partner for vertex 0
    f = write(tmp_path, "iv.iv", "2\n0 1 2\n1 3 4\n")
    code, out = run(capsys, ["interval", f])
    assert code == 1
    assert "verdict: not-unique" in out
    assert "reason: stuck at vertex 0" in out
    assert "witness:" not in out


def test_interval_bad_rep(tmp_path, capsys):
    f = write(tmp_path, "iv.iv", "2\n0 1 4\n1 4 6\n")
    code, out = run(capsys, ["interval", f])
    assert code == 2
    assert "endpoints not distinct" in out


# ---------------------------------------------------------------- clawfree

def test_clawfree_stats(paw_file, capsys):
    code, out = run(capsys, ["clawfree", paw_file, "--stats"])
    assert code == 0
    assert "cursor_advances:" in out
    assert "0 3\n1 2\n" in out


def test_clawfree_check_claw_rejects(tmp_path, capsys):
    star = write(tmp_path, "star.g", "4 3\n0 1\n0 2\n0 3\n")
    code, out = run(capsys, ["clawfree", star, "--check-claw"])
    assert code == 2
    assert "claw at 0" in out


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


def test_gen_unique_split_odd_n_is_input_error(tmp_path, capsys):
    out = str(tmp_path / "odd")
    code, text = run(capsys, ["gen", "--family", "split", "--unique",
                              "-n", "5", "--out", out])
    assert code == 2
    assert text == "error: unique-PM instances need even n\n"
    assert list(tmp_path.iterdir()) == []


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


# -------------------------------------------------------------- bench

def test_bench_csv_schema_and_bound(tmp_path, capsys):
    out_file = str(tmp_path / "bench.csv")
    code = main(["bench", "--family", "clique-chain", "--sizes", "300,600",
                 "--repetitions", "2", "--out", out_file])
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == ("schema,family,n,m,rep,wall_time_s,cursor_advances,"
                        "lm_nb_updates")
    assert len(lines) == 5
    for row in lines[1:]:
        schema, family, n, m, rep, wall, adv, lm = row.split(",")
        assert schema == "unipm-bench-1"
        assert int(adv) <= 2 * int(m)


def test_bench_gclass_family(capsys):
    code, out = run(capsys, ["bench", "--family", "gclass", "--sizes", "200",
                             "--repetitions", "1", "--seed", "5"])
    assert code == 0
    assert out.splitlines()[0].startswith("schema,")


@pytest.mark.parametrize("argv, path", [
    (["gen", "--family", "cograph", "--out", "{d}/x"], "{d}/x.g"),
    (["bench", "--sizes", "30", "--repetitions", "1", "--out", "{d}/b.csv"],
     "{d}/b.csv"),
])
def test_unwritable_output_exit_2(tmp_path, capsys, monkeypatch, argv, path):
    def no_run(*args):
        raise AssertionError("bench ran before its output was opened")
    monkeypatch.setattr(cli, "bench_rows", no_run)
    d = str(tmp_path / "no-such-dir")
    code, out = run(capsys, [a.format(d=d) for a in argv])
    assert code == 2
    assert out.startswith(f"error: cannot write {path.format(d=d)}: ")
    assert out.count("\n") == 1


# -------------------------------------------------------------- usage

def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_file_exit_2(capsys):
    code, out = run(capsys, ["check", "/nonexistent/x.g"])
    assert code == 2
