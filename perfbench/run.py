"""Decision benchmark for unipm: one op is one ``unipm`` CLI command.

Usage, from the repository root:

    python3 perfbench/run.py --workload unique-clawfree --seed 1 --seconds 15 --trace 0

Each op calls ``unipm.cli.main(argv)`` in this process on a file written
during set-up, with stdout captured; one client runs ops back to back
(a closed loop on one thread) and the sizes take turns.  Outputs are
judged by ``gate`` outside the timed region.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics from spans
with ``--trace 1``).  Lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import gate
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# set-up runs at least SETUP_MIN_RUNS times and until SETUP_MIN_SECONDS have
# passed (at most SETUP_MAX_RUNS), so cheap set-ups get a steadier median
SETUP_MIN_RUNS, SETUP_MAX_RUNS, SETUP_MIN_SECONDS = 3, 25, 1.5

END_TO_END = {  # name -> unit; every workload reports each one
    "setup_s": "s",
    "check_s": "s",
    "check_edges_per_s": "edges/s",
    "check_scaling": "ratio",
    "round_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.check.s": "s",
    "cli.check.self_s": "s",
    "uniqueness.is_unique_pm.s": "s",
    "uniqueness.is_unique_pm.share": "ratio",
    "uniqueness.witness_len": "edges",
    "gclass.decompose.s": "s",
    "gclass.endblocks.calls": "count",
    "gclass.endblocks.s": "s",
    "gclass.is_connected.calls": "count",
    "gclass.is_connected.s": "s",
    "gclass.is_simplicial.s": "s",
    "gclass.replay.s": "s",
    "gclass.parse_trace.s": "s",
    "graph.parse_graph.s": "s",
    "forcing.find_forcing_set.s": "s",
    "forcing.decided_ratio": "ratio",
    "forcing.forced_pairs_ratio": "ratio",
    "graph.find_claw.s": "s",
    "graph.connected_components.s": "s",
    "clawfree.pmincf.s": "s",
    "clawfree.pmincf.cursor_advances": "count",
    "clawfree.pmincf.advances_per_edge": "ratio",
    "clawfree.pmincf.lm_nb_updates": "count",
    "clawfree.pmincf.reseeds": "count",
    "interval.parse_intervals.s": "s",
    "interval.intersection_graph.s": "s",
    "interval.interval_pm.s": "s",
    "gclass.random_gclass.s": "s",
    "generators.clique_chain.s": "s",
    "uniqueness.enumerate_pms.calls": "count",
    "uniqueness.enumerate_pms.s": "s",
    "graph.format_matching.s": "s",
}


class Runner:
    """Runs ops through the CLI, judges them and keeps one record per op."""

    def __init__(self, cli_main, tracer=None):
        self.cli_main = cli_main
        self.tracer = tracer
        self.next_op = 0
        self.verdicts: dict[tuple, tuple[str, str]] = {}
        self.records: list[dict] = []
        self.failures: list[str] = []

    def run(self, op, group: int, record: bool = True) -> None:
        op_id = self.next_op
        self.next_op += 1
        buf = io.StringIO()
        error = None
        with contextlib.redirect_stdout(buf):
            scope = (self.tracer.op(op_id, f"cli.{op.kind}") if self.tracer
                     else contextlib.nullcontext())
            start = time.perf_counter()
            try:
                with scope:
                    rc = self.cli_main([op.kind, op.path])
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        out = buf.getvalue()
        if error is not None:
            status, reason = gate.FAIL, f"raised {error}"
        else:
            key = (op.kind, op.item.key, rc, hash(out))
            if key not in self.verdicts:
                self.verdicts[key] = gate.judge(op, rc, out)
            status, reason = self.verdicts[key]
        if (status == gate.OK and op.kind == "decompose" and op.item.trace_path
                and not os.path.exists(op.item.trace_path)):
            with open(op.item.trace_path, "w", encoding="utf-8") as fh:
                fh.write(out)
        if not record:
            return
        if status == gate.FAIL and len(self.failures) < 20:
            self.failures.append(f"{op.kind} {op.item.key}: {reason}")
        self.records.append({"op": op_id, "group": group, "kind": op.kind,
                             "item": op.item.key, "m": len(op.item.edges),
                             "s": elapsed, "status": status})


def set_up(build, seed: int, workdir: str, runner: Runner):
    """Build, check and write the instances, then warm up on the smallest visit."""
    workload = build(seed, workdir)
    for op in workload.groups[0][0]:
        runner.run(op, 0, record=False)
    return workload


def measure(workload, runner: Runner, seconds: float) -> float:
    """Closed loop until the deadline, ending on a whole rotation; returns wall seconds.

    A cycle runs one visit of every size; a rotation is as many cycles as
    the largest size has visits, so the top size's instances run equally often.
    """
    groups = workload.groups
    rotation = max(len(g) for g in groups)
    start = time.perf_counter()
    cycle = 0
    while True:
        for gi, visits in enumerate(groups):
            for op in visits[cycle % len(visits)]:
                runner.run(op, gi)
        cycle += 1
        if cycle % rotation == 0 and time.perf_counter() - start >= seconds:
            return time.perf_counter() - start


def typical(rows: list[dict]) -> float:
    """Geometric mean over instances of each instance's median time.

    Every instance weighs the same however often it ran, and a workload
    that mixes families (a chain, a member, a chorded chain) moves
    smoothly with each family instead of jumping between them the way
    a median over a few families does.
    """
    per_item: dict[str, list[float]] = {}
    for r in rows:
        per_item.setdefault(r["item"], []).append(r["s"])
    return math.exp(statistics.fmean(math.log(statistics.median(ts))
                                      for ts in per_item.values()))


def _scaling(workload, rows: list[dict]) -> float:
    """2 ** slope of the least-squares line of log2 typical time on log2 size.

    With three sizes spaced by doublings this is the geometric mean of
    the per-doubling ratios; linear growth gives 2.
    """
    pts = [(math.log2(workload.sizes[g]), math.log2(typical([r for r in rows if r["group"] == g])))
           for g in workload.scaling_groups]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    slope = (sum((x - mx) * (y - my) for x, y in pts)
             / sum((x - mx) ** 2 for x, _ in pts))
    return 2 ** slope


def top_records(workload, records: list[dict]) -> list[dict]:
    """The ops the single-size metrics use: the top size, or every size if pooled."""
    top = len(workload.groups) - 1
    return [r for r in records if workload.pooled or r["group"] == top]


def end_to_end(workload, records: list[dict], setup_times: list[float]) -> tuple[dict, list[str]]:
    """Every end-to-end metric this workload's ops produce, and the report lines."""
    def of(kind: str, rows: list[dict]) -> list[dict]:
        return [r for r in rows if r["kind"] == kind]

    top = top_records(workload, records)
    checks, top_checks = of("check", records), of("check", top)
    q1, q2, q3 = statistics.quantiles([r["s"] for r in top_checks], n=4)
    # a pooled corpus is one population: its check time is the median decision
    per_kind = {k: typical(of(k, top)) for k in workload.kinds}
    if workload.pooled:
        per_kind["check"] = q2
    m: dict[str, float] = {f"{k}_s": t for k, t in per_kind.items()}
    m.update({
        "setup_s": statistics.median(setup_times),
        "check_p25_s": q1,
        "check_p75_s": q3,
        "check_samples": len(top_checks),
        "check_edges_per_s": sum(r["m"] for r in checks) / sum(r["s"] for r in checks),
        "check_scaling": _scaling(workload, checks),
        "round_s": sum(per_kind.values()),
        "fail_share": sum(r["status"] == "fail" for r in records) / len(records),
        "undecided_share": sum(r["status"] == "undecided" for r in records) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if "decompose" in workload.kinds:
        m["decompose_scaling"] = _scaling(workload, of("decompose", records))

    units = dict(END_TO_END, check_p25_s="s", check_p75_s="s", check_samples="count",
                 decompose_s="s", decompose_scaling="ratio", replay_s="s",
                 clawfree_s="s", interval_s="s", fail_share="ratio",
                 undecided_share="ratio")
    lines = [f"{name} = {m[name]:.6g} {units[name]}" for name in sorted(m)]
    lines.append("")
    lines.append(f"per-size times ({workload.size_unit} = size; geometric mean over the size's "
                 "instances of each one's median; ratio = to the previous size)")
    kinds = [k for k in ("check", "decompose") if k in workload.kinds]
    lines.append(f"{'size':>8} {'samples':>7} {'m':>8}"
                 + "".join(f" {k + '_s':>12} {'ratio':>6}" for k in kinds))
    prev: dict[str, float] = {}
    for g, size in enumerate(workload.sizes):
        rows = [r for r in records if r["group"] == g]
        line = (f"{size:>8} {len(of('check', rows)):>7} "
                f"{statistics.median(r['m'] for r in of('check', rows)):>8.0f}")
        for k in kinds:
            t = typical(of(k, rows))
            line += f" {t:>12.4f} " + (f"{t / prev[k]:6.2f}" if k in prev else " " * 6)
            prev[k] = t
        lines.append(line)
    return m, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "unipm", "cli.py")):
        print(f"error: no unipm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from unipm import cli
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    runner = Runner(cli.main, tracer)
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "work"))
    try:
        setup_times: list[float] = []
        while (len(setup_times) < SETUP_MIN_RUNS
               or (sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_RUNS)):
            if setup_times:
                del workload
                shutil.rmtree(workdir)
                os.makedirs(workdir)
            scope = (tracer.op(-1 - len(setup_times), "setup") if tracer
                     else contextlib.nullcontext())
            start = time.perf_counter()
            with scope:
                workload = set_up(WORKLOADS[args.workload], args.seed, workdir, runner)
            setup_times.append(time.perf_counter() - start)
        gc.collect()
        gc.freeze()  # instances and truth stay out of the collector's scans
        wall = measure(workload, runner, args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    records = runner.records
    attempted = len(records)
    failed = sum(r["status"] == "fail" for r in records)
    metrics, lines = end_to_end(workload, records, setup_times)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in {wall:.1f} s, "
          f"{failed} failed; {len(setup_times)} set-ups, median {statistics.median(setup_times):.3f} s")
    for line in runner.failures:
        print(f"FAILED {line}")
    if tracer:
        top = top_records(workload, records)
        checks = {r["op"] for r in top if r["kind"] == "check"}
        ops = {r["op"] for r in top} | {-1 - rep for rep in range(len(setup_times))}
        layers = tracing.layer_metrics(tracer.spans, ops, checks)
        layers["cli.check.s"] = metrics["check_s"]
        table = tracing.self_time_table(tracer.spans, checks)
        lines.append("")
        lines.append("traced: mean self time per top-size check, by layer")
        for name, t in sorted(table.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<34} {t:.6f} s")
        total = sum(table.values())
        mean = statistics.fmean(r["s"] for r in top if r["kind"] == "check")
        lines.append(f"  {'sum':<34} {total:.6f} s = {total / mean:.3f} of the mean traced "
                     f"check, {total / layers['cli.check.s']:.3f} of traced check_s")
        result = {name: {"value": layers.get(name, 0.0), "unit": unit}
                  for name, unit in PER_LAYER.items()}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.tsv.gz"))
    else:
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in END_TO_END.items()}
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
