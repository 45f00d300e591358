"""Command-line front end: unique-perfect-matching tools.

Exit codes: 0 success / unique, 1 no unique perfect matching, 2 input
error (an unreadable input or an unwritable output path), 3 undecided
(no class-specific algorithm applies and the graph is too large for the
oracle), 4 internal error (a self-check of the program failed; the
message names it).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

from .clawfree import PmincfStats, pmincf
from .forcing import find_forcing_set
from .gclass import decompose, format_trace, parse_trace, random_gclass, replay
from .generators import (clique_chain, cograph_instance, interval_instance,
                         split_instance)
from .graph import (Graph, GraphParseError, connected_components, find_claw,
                    format_matching, parse_graph, serialize_graph)
from .interval import (IntervalParseError, IntervalPMError, intersection_graph,
                       interval_pm, parse_intervals)
from .uniqueness import enumerate_pms, is_unique_pm

EXIT_OK = 0
EXIT_NOT_UNIQUE = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3
EXIT_INTERNAL = 4

BENCH_SCHEMA = "unipm-bench-1"


def _emit(key: str, value) -> None:
    print(f"{key}: {value}")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from None


@contextlib.contextmanager
def _output(path: str):
    """The file at path, open for writing; an OSError while opening or
    writing it becomes a ValueError naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _load_graph(path: str) -> Graph:
    return parse_graph(_read_file(path))


def _header(algorithm: str, path: str, g: Graph) -> None:
    _emit("algorithm", algorithm)
    _emit("instance", path)
    _emit("n", g.live_count)
    _emit("m", g.edge_count)


def _seed_from(args) -> int:
    env = os.environ.get("UNIPM_SEED")
    if env is not None:
        return int(env)
    return args.seed


# the proof behind each method that settles uniqueness before the verifier runs
_PROOFS = {"forcing": "forcing certificate", "oracle": "oracle count"}


def _verdict(g: Graph, start: float, method: str, matching=None,
             reason: str | None = None, settled: bool | None = None) -> int:
    """Verify a candidate perfect matching, print the verdict, return the
    exit code.

    ``matching`` is None when ``reason`` says why there is none.
    ``settled`` is the uniqueness the method has already proved, which
    the verifier must confirm.
    """
    witness = None if matching is None else is_unique_pm(g, matching)
    unique = matching is not None and witness is None
    if settled is not None and settled != unique:
        raise RuntimeError(f"{_PROOFS[method]} contradicts verifier")
    _emit("method", method)
    _emit("verdict", "unique" if unique else "not-unique")
    if reason is not None:
        _emit("reason", reason)
    _emit("elapsed_s", f"{time.perf_counter() - start:.6f}")
    if witness is not None:
        _emit("witness", " ".join(map(str, witness.cycle)))
    elif matching is not None:
        sys.stdout.write(format_matching(matching))
    return EXIT_OK if unique else EXIT_NOT_UNIQUE


def _cmd_check(args) -> int:
    g = _load_graph(args.file)
    _header("check", args.file, g)
    start = time.perf_counter()
    cert = find_forcing_set(g)
    if cert is not None:
        return _verdict(g, start, "forcing", cert.matching, settled=True)
    if find_claw(g) is None:
        if g.live_count % 2 or any(len(c) % 2 for c in connected_components(g)):
            return _verdict(g, start, "clawfree",
                            reason="odd-order component has no perfect matching")
        return _verdict(g, start, "clawfree", pmincf(g))
    if g.live_count <= args.oracle_cap:
        pms = enumerate_pms(g, 2)
        if not pms:
            return _verdict(g, start, "oracle", reason="no perfect matching")
        return _verdict(g, start, "oracle", pms[0], settled=len(pms) == 1)
    _emit("method", "none")
    _emit("verdict", "undecided-class")
    _emit("reason", f"graph has a claw and more than {args.oracle_cap} vertices")
    return EXIT_UNDECIDED


def _cmd_force(args) -> int:
    g = _load_graph(args.file)
    _header("force", args.file, g)
    cert = find_forcing_set(g)
    if cert is None:
        print("NO FORCING SET")
        return EXIT_NOT_UNIQUE
    _emit("verdict", "unique")
    _emit("forcing_order", " ".join(f"{u},{v}" for u, v in cert.forced))
    sys.stdout.write(format_matching(cert.matching))
    return EXIT_OK


def _cmd_interval(args) -> int:
    rep = parse_intervals(_read_file(args.file))
    g = intersection_graph(rep)
    _header("interval", args.file, g)
    start = time.perf_counter()
    try:
        m = interval_pm(rep)
    except IntervalPMError as exc:
        return _verdict(g, start, "interval", reason=str(exc))
    return _verdict(g, start, "interval", m)


def _cmd_clawfree(args) -> int:
    g = _load_graph(args.file)
    _header("clawfree", args.file, g)
    if args.check_claw:
        claw = find_claw(g)
        if claw is not None:
            center, leaves = claw
            _emit("verdict", "failure")
            _emit("reason", f"claw at {center}: {' '.join(map(str, leaves))}")
            return EXIT_INPUT
    stats = PmincfStats() if args.stats else None
    start = time.perf_counter()
    try:
        m = pmincf(g, stats=stats)
    except ValueError as exc:
        _emit("verdict", "failure")
        _emit("reason", str(exc))
        return EXIT_INPUT
    _emit("elapsed_s", f"{time.perf_counter() - start:.6f}")
    if stats is not None:
        _emit("cursor_advances", stats.cursor_advances)
        _emit("lm_nb_updates", stats.lm_nb_updates)
        _emit("reseeds", stats.reseeds)
    sys.stdout.write(format_matching(m))
    return EXIT_OK


def _cmd_gen(args) -> int:
    seed = _seed_from(args)
    prefix = args.out
    written = []
    if args.family == "gclass":
        g, trace = random_gclass(args.steps, op2_bias=args.op2_bias, seed=seed)
        written.append((f"{prefix}.g", serialize_graph(g)))
        written.append((f"{prefix}.trace", format_trace(trace)))
    elif args.family == "clique-chain":
        g, trace = clique_chain(args.steps)
        written.append((f"{prefix}.g", serialize_graph(g)))
        written.append((f"{prefix}.trace", format_trace(trace)))
    elif args.family == "cograph":
        g = cograph_instance(args.n, seed)
        written.append((f"{prefix}.g", serialize_graph(g)))
    elif args.family == "split":
        if args.unique and args.n % 2:
            _emit("error", "unique split instances need even n")
            return EXIT_INPUT
        g = split_instance(args.n, seed, unique=args.unique)
        written.append((f"{prefix}.g", serialize_graph(g)))
    else:  # interval
        rep = interval_instance(args.n, seed)
        lines = [str(rep.n)]
        lines.extend(f"{v} {l} {r}" for v, (l, r) in enumerate(rep.intervals))
        written.append((f"{prefix}.iv", "\n".join(lines) + "\n"))
    for path, content in written:
        with _output(path) as fh:
            fh.write(content)
        _emit("wrote", path)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    g = _load_graph(args.file)
    trace = decompose(g)
    if trace is None:
        print("NOT IN CLASS")
        return EXIT_NOT_UNIQUE
    sys.stdout.write(format_trace(trace))
    return EXIT_OK


def _cmd_replay(args) -> int:
    trace = parse_trace(_read_file(args.file))
    g = replay(trace)
    sys.stdout.write(serialize_graph(g))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _load_graph(args.file)
    _header("oracle", args.file, g)
    pms = enumerate_pms(g, args.cap)
    _emit("pm_count", len(pms))
    _emit("cap_reached", "true" if len(pms) >= args.cap else "false")
    for i, m in enumerate(pms):
        _emit(f"matching_{i}", " ".join(f"{u},{v}" for u, v in m.pairs))
    return EXIT_OK


def bench_rows(family: str, sizes: list[int], repetitions: int,
               seed: int) -> list[tuple]:
    """Benchmark rows: (schema, family, n, m, rep, wall_s, advances, lm_updates).

    pmincf itself raises RuntimeError if the cursors advance past the
    live adjacency lengths, which is 2m here (no vertex is removed).
    Repetitions are interleaved round-robin across the sizes and cyclic
    GC is paused while timing, so a transient slowdown of the host hits
    every size instead of silently inflating one size's whole block;
    per-size medians then stay comparable.
    """
    import gc

    instances = []
    for target_m in sizes:
        if family == "clique-chain":
            g, _ = clique_chain(max(0, (target_m - 1) // 3))
        elif family == "gclass":
            steps = max(0, target_m // 3)
            g, _ = random_gclass(steps, op2_bias=0.5, seed=seed)
        else:
            raise ValueError(f"bench family must be gclass or clique-chain, "
                             f"not {family!r}")
        pmincf(g)  # warmup, excluded from timing
        instances.append(g)
    per_size: list[list[tuple]] = [[] for _ in instances]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in range(repetitions):
            for i, g in enumerate(instances):
                stats = PmincfStats()
                start = time.perf_counter()
                pmincf(g, stats=stats)
                elapsed = time.perf_counter() - start
                per_size[i].append(
                    (BENCH_SCHEMA, family, g.live_count, g.edge_count, rep,
                     f"{elapsed:.6f}", stats.cursor_advances,
                     stats.lm_nb_updates))
    finally:
        if gc_was_enabled:
            gc.enable()
    return [row for rows in per_size for row in rows]


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    # open --out before the run, so an unwritable path fails at once
    out = _output(args.out) if args.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        rows = bench_rows(args.family, sizes, args.repetitions, _seed_from(args))
        lines = ["schema,family,n,m,rep,wall_time_s,cursor_advances,lm_nb_updates"]
        lines.extend(",".join(map(str, row)) for row in rows)
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unipm",
        description="Decide and find unique perfect matchings for cographs, "
                    "split graphs, interval graphs, and claw-free graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="auto-dispatch uniqueness decision")
    p.add_argument("file")
    p.add_argument("--oracle-cap", type=int, default=16,
                   help="max order for the brute-force fallback")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("force", help="forcing-set elimination")
    p.add_argument("file")
    p.set_defaults(func=_cmd_force)

    p = sub.add_parser("interval", help="interval-representation matching")
    p.add_argument("file")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("clawfree", help="greedy matching for claw-free graphs")
    p.add_argument("file")
    p.add_argument("--check-claw", action="store_true",
                   help="pre-validate claw-freeness (test scale)")
    p.add_argument("--stats", action="store_true",
                   help="print operation counters")
    p.set_defaults(func=_cmd_clawfree)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--family", default="gclass",
                   choices=["gclass", "clique-chain", "cograph", "split",
                            "interval"])
    p.add_argument("--steps", type=int, default=10,
                   help="construction steps (gclass, clique-chain)")
    p.add_argument("-n", type=int, default=8,
                   help="order (cograph, split, interval)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--op2-bias", type=float, default=0.5)
    p.add_argument("--unique", action="store_true",
                   help="enforce the unique-PM balance for split instances")
    p.add_argument("--out", default="instance", help="output file prefix")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("decompose", help="recognize class membership")
    p.add_argument("file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("replay", help="rebuild a graph from a trace")
    p.add_argument("file")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("oracle", help="brute-force matching enumeration")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=2)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="linearity benchmark (CSV)")
    p.add_argument("--family", default="clique-chain",
                   choices=["gclass", "clique-chain"])
    p.add_argument("--sizes", default="10000,20000,40000",
                   help="comma-separated edge-count targets")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (GraphParseError, IntervalParseError) as exc:
        _emit("error", str(exc))
        return EXIT_INPUT
    except ValueError as exc:
        _emit("error", str(exc))
        return EXIT_INPUT
    except RuntimeError as exc:
        _emit("error", str(exc))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
