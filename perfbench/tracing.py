"""Spans around the library's layers, recorded from the benchmark's side.

``Tracer.install`` replaces each public function that ``unipm.cli`` and
``unipm.gclass`` look up in their module namespace with a wrapper that
records a span: name, start, end, parent span and op id.  Private
helpers are never wrapped.  Spans stay in memory; ``write`` saves them
once the run is over, and ``layer_metrics`` derives per-layer numbers
(inclusive and self time, call counts, counters) from them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from contextlib import contextmanager

# span record fields
NAME, START, END, PARENT, OP, ATTRS = range(6)


def _observe_forcing(args, kwargs, result) -> dict:
    g = args[0]
    return {"decided": result is not None,
            "forced": len(result.forced) if result is not None else 0,
            "half_n": g.live_count / 2}


def _observe_verifier(args, kwargs, result) -> dict:
    return {"witness_len": len(result.cycle) - 1 if result is not None else None}


def _observe_pmincf(args, kwargs, result) -> dict:
    stats = kwargs["stats"] if "stats" in kwargs else args[1]
    return {"cursor_advances": stats.cursor_advances,
            "lm_nb_updates": stats.lm_nb_updates,
            "reseeds": stats.reseeds,
            "edges": args[0].edge_count}


OBSERVERS = {
    "forcing.find_forcing_set": _observe_forcing,
    "uniqueness.is_unique_pm": _observe_verifier,
    "clawfree.pmincf": _observe_pmincf,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = 0
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one op; every span opened inside carries op_id."""
        outer = self.op_id
        self.op_id = op_id
        rec = [name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1,
               op_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter_ns()
            self.stack.pop()
            self.op_id = outer

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = OBSERVERS.get(name)
        inject_stats = name == "clawfree.pmincf"
        if inject_stats:
            from unipm.clawfree import PmincfStats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inject_stats and len(args) < 2 and kwargs.get("stats") is None:
                kwargs["stats"] = PmincfStats()
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if observe is not None:
                rec[ATTRS] = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions unipm.cli and unipm.gclass look up.

        A function the cli module imports is named after the module that
        defines it (``graph.parse_graph``); everything the gclass module
        looks up, its own functions included, is named ``gclass.<name>``.
        """
        from unipm import cli, gclass
        for module, own_prefix in ((cli, None), (gclass, "gclass")):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("unipm.")
                        or fn.__module__ == "unipm.cli"):
                    continue
                prefix = own_prefix or fn.__module__.rsplit(".", 1)[1]
                self._undo.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{prefix}.{attr}", fn))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def write(self, path: str) -> None:
        """Save the spans as gzipped tab-separated text."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for rec in self.spans:
                fh.write(f"{rec[OP]}\t{rec[NAME]}\t{rec[START]}\t{rec[END]}\t{rec[PARENT]}\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children (ns)."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_metrics(spans, ops: set[int], check_ops: set[int]) -> dict[str, float]:
    """Per-layer numbers over the given ops.

    ``NAME.s`` and ``NAME.calls`` are the mean inclusive seconds and the
    mean call count per op among the ops that reach that layer;
    ``NAME.self_s`` is the mean self time per op.  ``check_ops`` (the
    top-size check ops) give the verifier's share of check time.
    Counters are summed over the calls in ``ops``.
    """
    own = self_times(spans)
    per_op: dict[str, dict[int, list[float]]] = {}
    counters: dict[str, float] = {}
    check_total = 0.0
    verifier_in_check = 0.0
    for i, rec in enumerate(spans):
        if rec[OP] not in ops:
            continue
        dur = (rec[END] - rec[START]) / 1e9
        acc = per_op.setdefault(rec[NAME], {}).setdefault(rec[OP], [0.0, 0, 0.0])
        acc[0] += dur
        acc[1] += 1
        acc[2] += own[i] / 1e9
        if rec[OP] in check_ops:
            if rec[PARENT] < 0:
                check_total += dur
            elif rec[NAME] == "uniqueness.is_unique_pm":
                verifier_in_check += dur
        for key, value in (rec[ATTRS] or {}).items():
            if value is not None:
                counters[f"{rec[NAME]}.{key}"] = counters.get(f"{rec[NAME]}.{key}", 0) + value
                counters[f"{rec[NAME]}.{key}.n"] = counters.get(f"{rec[NAME]}.{key}.n", 0) + 1
    out: dict[str, float] = {}
    for name, by_op in per_op.items():
        k = len(by_op)
        out[f"{name}.s"] = sum(a[0] for a in by_op.values()) / k
        out[f"{name}.calls"] = sum(a[1] for a in by_op.values()) / k
        out[f"{name}.self_s"] = sum(a[2] for a in by_op.values()) / k
    c = counters.get
    calls = c("clawfree.pmincf.edges.n", 0)
    out["uniqueness.is_unique_pm.share"] = verifier_in_check / check_total if check_total else 0.0
    out["uniqueness.witness_len"] = (c("uniqueness.is_unique_pm.witness_len", 0)
                                     / c("uniqueness.is_unique_pm.witness_len.n", 1))
    out["forcing.decided_ratio"] = (c("forcing.find_forcing_set.decided", 0)
                                    / c("forcing.find_forcing_set.decided.n", 1))
    out["forcing.forced_pairs_ratio"] = (c("forcing.find_forcing_set.forced", 0)
                                         / (c("forcing.find_forcing_set.half_n", 0) or 1))
    for key in ("cursor_advances", "lm_nb_updates", "reseeds"):
        out[f"clawfree.pmincf.{key}"] = c(f"clawfree.pmincf.{key}", 0) / (calls or 1)
    out["clawfree.pmincf.advances_per_edge"] = (c("clawfree.pmincf.cursor_advances", 0)
                                                / (c("clawfree.pmincf.edges", 0) or 1))
    return out


def self_time_table(spans, check_ops: set[int]) -> dict[str, float]:
    """Mean self seconds per check op for every layer a check reaches."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for i, rec in enumerate(spans):
        if rec[OP] in check_ops:
            totals[rec[NAME]] = totals.get(rec[NAME], 0.0) + own[i] / 1e9
    return {name: t / len(check_ops) for name, t in totals.items()} if check_ops else {}
