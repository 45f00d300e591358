"""Self-tests of the benchmark: the gate, the generators and the run contract.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import run  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402
from unipm import cli  # noqa: E402

SMALL = {
    "unique-clawfree": dict(sizes=(10, 14), per_size=2),
    "witness-search": dict(sizes=(10, 14), members=2),
    "linear-large": dict(sizes=(31, 61)),
    "small-many": dict(per_kind=2),
}


def build(name, seed, workdir):
    return workloads.WORKLOADS[name](seed, str(workdir), **SMALL[name])


def items_of(workload):
    seen = {}
    for visits in workload.groups:
        for visit in visits:
            for op in visit:
                seen[op.item.key] = op.item
    return list(seen.values())


def first_op(workload, kind, expect):
    return next(op for visits in workload.groups for visit in visits for op in visit
                if op.kind == kind and op.item.expect == expect)


@pytest.fixture
def witness(tmp_path):
    return build("witness-search", 3, tmp_path)


@pytest.fixture
def unique(tmp_path):
    return build("unique-clawfree", 3, tmp_path)


def render(pairs):
    return "".join(f"{u} {v}\n" for u, v in sorted(pairs))


def test_correct_outputs_pass(unique, witness):
    op = first_op(unique, "check", "unique")
    assert gate.judge(op, 0, "verdict: unique\n" + render(op.item.pm)) == (gate.OK, "")
    mop = first_op(witness, "check", "multi")
    assert mop.item.key == "chain-chord-10"
    a, b, c, d = workloads._chain_chord_cycle(2)
    out = f"verdict: not-unique\nwitness: {a} {b} {c} {d} {a}\n"
    assert gate.judge(mop, 1, out) == (gate.OK, "")


def test_wrong_matching_fails(unique):
    op = first_op(unique, "check", "unique")
    pairs = sorted(op.item.pm)
    (a, b), (c, d) = pairs[0], pairs[1]
    swapped = pairs[2:] + [(a, c), (b, d)]
    status, reason = gate.judge(op, 0, "verdict: unique\n" + render(swapped))
    assert status == gate.FAIL and "matching" in reason


def test_invalid_witness_fails(witness):
    op = first_op(witness, "check", "multi")
    for cycle in ("0 1 2 0", "0 1 0", "0 2 4 6 0"):
        status, _ = gate.judge(op, 1, f"verdict: not-unique\nwitness: {cycle}\n")
        assert status == gate.FAIL, cycle
    status, reason = gate.judge(op, 1, "verdict: not-unique\n")
    assert status == gate.FAIL and "no witness" in reason


def test_wrong_exit_code_fails(unique, witness):
    op = first_op(unique, "check", "unique")
    assert gate.judge(op, 1, "verdict: unique\n" + render(op.item.pm))[0] == gate.FAIL
    assert gate.judge(op, 3, "verdict: undecided-class\n")[0] == gate.FAIL
    mop = first_op(witness, "check", "multi")
    assert gate.judge(mop, 0, "verdict: not-unique\n")[0] == gate.FAIL


def test_raised_exception_fails(unique):
    def boom(argv):
        raise RuntimeError("broken")
    runner = run.Runner(boom)
    runner.run(first_op(unique, "check", "unique"), 0)
    assert runner.records[0]["status"] == gate.FAIL
    assert "RuntimeError" in runner.failures[0]


def test_broken_decompose_trace_fails(unique):
    op = next(op for visit in unique.groups[0] for op in visit if op.kind == "decompose")
    with open(op.item.path) as fh:
        assert gate.judge(op, 0, fh.read())[0] == gate.FAIL
    assert gate.judge(op, 0, "INIT 0 1\n")[0] == gate.FAIL


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        build(name, seed, d)
    files = sorted(os.listdir(dirs[0]))
    assert files == sorted(os.listdir(dirs[1]))
    read = lambda d, f: (d / f).read_bytes()  # noqa: E731
    assert all(read(dirs[0], f) == read(dirs[1], f) for f in files)
    assert any(not (dirs[2] / f).exists() or read(dirs[0], f) != read(dirs[2], f)
               for f in files)


def test_setup_preconditions_hold(tmp_path):
    for name in SMALL:
        workdir = tmp_path / name
        workdir.mkdir()
        for item in items_of(build(name, 4, workdir)):
            adj = truth.adjacency(item.n, item.edges)
            assert truth.is_connected(item.n, adj), item.key
            if item.n > 20:
                continue
            count, first = truth.count_pms(item.n, adj)
            assert ("none", "unique", "multi")[count] == item.expect, item.key
            if item.expect == "unique":
                assert {truth.norm(u, v) for u, v in first} == item.pm, item.key
            if name != "small-many":
                assert not truth.has_claw(adj), item.key
                assert cli.find_claw(cli.parse_graph(truth.graph_text(item.n, item.edges))) is None
            if item.undecided_ok:
                assert item.n > 16 and truth.has_claw(adj)
                assert not truth.forcing_decides(item.n, adj)
    for k in (1, 2, 5, 30):
        _, edges = truth.rebuild(workloads.chain_steps(k))
        assert truth.interval_edges(workloads.chain_intervals(k)) == edges


def test_run_end_to_end_on_two_seeds(tmp_path):
    """The seed is an argument; each seed gives its own inputs and a clean gate."""
    for seed in (1, 2):
        for name in SMALL:
            workdir = tmp_path / f"{name}-{seed}"
            workdir.mkdir()
            workload = build(name, seed, workdir)
            runner = run.Runner(cli.main)
            run.measure(workload, runner, 0.05)
            assert runner.records and not runner.failures, (name, seed, runner.failures)
            metrics, _ = run.end_to_end(workload, runner.records, [0.1])
            assert metrics["fail_share"] == 0
            assert all(metrics[k] > 0 for k in run.END_TO_END), (name, seed)


def test_command_line_contract():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", "small-many", "--seed", "2", "--seconds", "0.3",
                           "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-many",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
