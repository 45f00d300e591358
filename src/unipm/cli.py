"""Command-line front end: unique-perfect-matching tools.  ``check``
and ``interval`` print the answer of ``unipm.decision.decide``.

Exit codes: 0 success / unique, 1 no unique perfect matching, 2 input
error (an unreadable input or an unwritable output path, a closed
stdout included), 4 internal error (a self-check of the program failed;
the message names it).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

from .clawfree import PmincfStats, pmincf
from .decision import decide
from .forcing import find_forcing_set
from .gclass import decompose, format_trace, parse_trace, random_gclass, replay
from .generators import (clique_chain, cograph_instance, interval_instance,
                         split_instance)
from .graph import (MAX_VERTICES, Graph, GraphParseError, Matching,
                    find_claw, format_matching, parse_graph, serialize_graph)
from .interval import IntervalRep, intersection_graph, parse_intervals
from .uniqueness import enumerate_pms

EXIT_OK = 0
EXIT_NOT_UNIQUE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 4


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


def _verdict(command: str, path: str, g: Graph,
             rep: IntervalRep | None = None) -> int:
    """Decide g, printing the header, the decision and the time it
    took; return the exit code."""
    _header(command, path, g)
    start = time.perf_counter()
    d = decide(g, rep)
    _emit("method", d.method)
    _emit("verdict", "unique" if d.unique else "not-unique")
    if d.reason is not None:
        _emit("reason", d.reason)
    _emit("elapsed_s", f"{time.perf_counter() - start:.6f}")
    if d.witness is not None:
        _emit("witness", " ".join(map(str, d.witness.cycle)))
    elif d.matching is not None:
        sys.stdout.write(format_matching(d.matching))
    return EXIT_OK if d.unique else EXIT_NOT_UNIQUE


def _cmd_check(args) -> int:
    return _verdict("check", args.file, _load_graph(args.file))


def _cmd_force(args) -> int:
    g = _load_graph(args.file)
    _header("force", args.file, g)
    cert = find_forcing_set(g)
    if cert is None:
        print("NO FORCING SET")
        return EXIT_NOT_UNIQUE
    _emit("verdict", "unique")
    _emit("forcing_order", " ".join(f"{u},{v}" for u, v in cert.forced))
    sys.stdout.write(format_matching(Matching(cert.forced)))
    return EXIT_OK


def _cmd_interval(args) -> int:
    rep = parse_intervals(_read_file(args.file))
    return _verdict("interval", args.file, intersection_graph(rep), rep)


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
        for key, value in vars(stats).items():
            _emit(key, value)
    sys.stdout.write(format_matching(m))
    return EXIT_OK


def _cmd_gen(args) -> int:
    # refuse an order the generators would run out of memory building
    if args.family in ("gclass", "clique-chain"):
        order = 2 * args.steps + 2
    else:
        order = args.n
    if order > MAX_VERTICES:
        raise ValueError(f"{args.family} of order {order} exceeds the limit "
                         f"of {MAX_VERTICES}")
    prefix = args.out
    written = []
    if args.family == "gclass":
        g, trace = random_gclass(args.steps, op2_bias=args.op2_bias,
                                 seed=args.seed)
        written.append((f"{prefix}.g", serialize_graph(g)))
        written.append((f"{prefix}.trace", format_trace(trace)))
    elif args.family == "clique-chain":
        g, trace = clique_chain(args.steps)
        written.append((f"{prefix}.g", serialize_graph(g)))
        written.append((f"{prefix}.trace", format_trace(trace)))
    elif args.family == "cograph":
        g = cograph_instance(args.n, args.seed)
        written.append((f"{prefix}.g", serialize_graph(g)))
    elif args.family == "split":
        g = split_instance(args.n, args.seed, unique=args.unique)
        written.append((f"{prefix}.g", serialize_graph(g)))
    else:  # interval
        rep = interval_instance(args.n, args.seed)
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
    if args.cap < 1:
        raise ValueError("--cap must be positive")
    g = _load_graph(args.file)
    _header("oracle", args.file, g)
    pms = enumerate_pms(g, args.cap)
    _emit("pm_count", len(pms))
    _emit("cap_reached", "true" if len(pms) >= args.cap else "false")
    for i, m in enumerate(pms):
        _emit(f"matching_{i}", " ".join(f"{u},{v}" for u, v in m.pairs))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unipm",
        description="Decide and find unique perfect matchings in any graph, "
                    "with linear-time paths for cographs, split graphs, "
                    "interval graphs, and claw-free graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide uniqueness for any graph")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("force", help="forcing-set elimination")
    p.add_argument("file")
    p.set_defaults(func=_cmd_force)

    p = sub.add_parser("interval", help="decide uniqueness from intervals")
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

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send the rest, and the exit-time flush, to
        # devnull so that nothing is printed about it
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return EXIT_INPUT
    except ValueError as exc:
        _emit("error", str(exc))
        return EXIT_INPUT
    except RuntimeError as exc:
        _emit("error", str(exc))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
