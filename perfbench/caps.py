"""One traced pass of the verifier-bound workloads at uncapped sizes.

Usage, from the repository root:

    python3 perfbench/caps.py [--seed 1]

unique-clawfree runs at n = 250/500/1000 with two members per size, and
witness-search at n = 500/1000/2000 with the chain and two chorded
members per size.  Each op runs once, judged like a benchmark op.  The
printed per-size times show why run.py caps both workloads at n = 512:
with the cubic verifier a timed run could hold only a few top-size
samples, too few for a steady median.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile

import run
import tracing
import workloads


def one_pass(workload, runner: run.Runner) -> None:
    for gi, visits in enumerate(workload.groups):
        for visit in visits:
            for op in visit:
                runner.run(op, gi)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from unipm import cli
    tracer = tracing.Tracer()
    tracer.install()
    os.makedirs(os.path.join(run.HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="caps-", dir=os.path.join(run.HERE, "work"))
    try:
        for workload in (workloads.unique_clawfree(args.seed, workdir, (250, 500, 1000), 2),
                         workloads.witness_search(args.seed, workdir, (500, 1000, 2000), 2)):
            runner = run.Runner(cli.main, tracer)
            one_pass(workload, runner)
            print(f"{workload.name}: {len(runner.records)} ops, "
                  f"{sum(r['status'] == 'fail' for r in runner.records)} failed")
            kinds = [k for k in ("check", "decompose", "replay") if k in workload.kinds]
            for gi, size in enumerate(workload.sizes):
                ops = {r["op"] for r in runner.records if r["group"] == gi}
                verifier = [(rec[tracing.END] - rec[tracing.START]) / 1e9
                            for rec in tracer.spans
                            if rec[tracing.OP] in ops and rec[tracing.NAME] == "uniqueness.is_unique_pm"]
                times = "  ".join(
                    f"{k} {statistics.median(r['s'] for r in runner.records if r['group'] == gi and r['kind'] == k):.3f} s"
                    for k in kinds)
                print(f"  n = {size:>5}: {times}  is_unique_pm {statistics.median(verifier):.3f} s")
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
