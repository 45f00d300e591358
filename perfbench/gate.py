"""Correctness gate: judge each CLI op's exit code and output against truth.

The library's own verifiers are not consulted.  Unique instances must
print exactly their one perfect matching; a "not-unique" answer must
carry a witness cycle that provably gives a second perfect matching of
the benchmark's edge set; decompose traces must rebuild the input
under the benchmark's own replay; replay must print the input's edges.
"""

from __future__ import annotations

import truth

OK, UNDECIDED, FAIL = "ok", "undecided", "fail"


def _fields_and_pairs(out: str) -> tuple[dict[str, str], list[tuple[int, int]]]:
    fields: dict[str, str] = {}
    pairs: list[tuple[int, int]] = []
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
            continue
        parts = line.split()
        if len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
            pairs.append((int(parts[0]), int(parts[1])))
    return fields, pairs


def _matching(item, pairs) -> str | None:
    """Why pairs are not the item's correct perfect matching, or None."""
    found = {truth.norm(u, v) for u, v in pairs}
    if len(found) != len(pairs):
        return "matching repeats a pair"
    if item.pm is not None:
        return None if found == item.pm else "matching differs from the unique one"
    if not truth.is_perfect_matching(item.n, item.edges, pairs):
        return "matching is not a perfect matching of the graph"
    return None


def _verdict(item, rc: int, fields, pairs) -> str | None:
    verdict = fields.get("verdict")
    if item.expect == "unique":
        if rc != 0 or verdict != "unique":
            return f"expected unique (exit 0), got exit {rc} verdict {verdict}"
        return _matching(item, pairs)
    if rc != 1 or verdict != "not-unique":
        return f"expected not-unique (exit 1), got exit {rc} verdict {verdict}"
    if pairs:
        return "not-unique answer prints a matching"
    witness = fields.get("witness")
    if item.expect == "none":
        return None if witness is None else "witness printed for a graph with no perfect matching"
    if witness is None:
        return "not-unique answer has no witness"
    try:
        cycle = [int(v) for v in witness.split()]
    except ValueError:
        return "witness is not a list of vertices"
    return truth.witness_problem(item.n, item.edges, item.adj, cycle, item.known_pms)


def judge(op, rc: int, out: str) -> tuple[str, str]:
    """(OK, UNDECIDED or FAIL, reason) for one op of the schedule."""
    item = op.item
    if op.kind in ("check", "interval"):
        fields, pairs = _fields_and_pairs(out)
        if rc == 3:
            if item.undecided_ok and op.kind == "check":
                return UNDECIDED, ""
            return FAIL, "undecided on a graph the CLI documents as decided"
        problem = _verdict(item, rc, fields, pairs)
    elif op.kind == "clawfree":
        _, pairs = _fields_and_pairs(out)
        problem = f"exit {rc}" if rc != 0 else _matching(item, pairs)
    elif op.kind == "decompose":
        if rc != 0:
            problem = f"member rejected with exit {rc}"
        else:
            try:
                problem = truth.trace_problem(item.n, item.edges, truth.parse_trace_text(out))
            except ValueError as exc:
                problem = str(exc)
    elif op.kind == "replay":
        try:
            problem = (f"exit {rc}" if rc != 0 else
                       None if truth.parse_graph_text(out) == (item.n, item.edges)
                       else "replayed graph differs from the input")
        except (ValueError, IndexError):
            problem = "replay output is not a graph"
    else:
        raise ValueError(f"unknown op kind {op.kind}")
    return (FAIL, problem) if problem else (OK, "")
