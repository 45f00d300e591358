"""Seeded generators give the same bytes for the same seed.

Every benchmark instance and every seeded test builds on this.  Each
case hashes the text forms (``serialize_graph``, ``format_trace``, the
intervals) and the adjacency lists, neighbor order included; a digest
that moves means a generator's output for a pinned seed changed.
"""

import hashlib

import pytest

from unipm import (clique_chain, cograph_instance, format_trace,
                   intersection_graph, interval_instance, random_gclass,
                   serialize_graph, split_instance)


def _graph_parts(g) -> list[str]:
    return [serialize_graph(g), repr(g.adjacency)]


def _gclass(steps, op2_bias, seed):
    g, trace = random_gclass(steps, op2_bias=op2_bias, seed=seed)
    return _graph_parts(g) + [format_trace(trace)]


def _chain(k):
    g, trace = clique_chain(k)
    return _graph_parts(g) + [format_trace(trace)]


def _interval(n, seed):
    rep = interval_instance(n, seed)
    return [repr(rep.intervals)] + _graph_parts(intersection_graph(rep))


CASES = {
    "gclass": lambda: [_gclass(steps, bias, seed)
                       for bias in (0, 0.5, 1)
                       for steps, seed in ((0, 0), (1, 1), (7, 2), (60, 3),
                                           (400, 4), (5000, 5))],
    "clique_chain": lambda: [_chain(k) for k in (0, 1, 5, 1000)],
    "cograph": lambda: [_graph_parts(cograph_instance(n, seed))
                        for n, seed in ((1, 0), (2, 1), (9, 2), (40, 3),
                                        (120, 4))],
    "interval": lambda: [_interval(n, seed)
                         for n, seed in ((0, 0), (1, 1), (14, 2), (100, 3),
                                         (1000, 4))],
    "split": lambda: [_graph_parts(split_instance(n, seed))
                      for n, seed in ((1, 0), (2, 1), (9, 2), (50, 3),
                                      (200, 4))],
}


def digest(family: str) -> str:
    h = hashlib.sha256()
    for case in CASES[family]():
        for part in case:
            h.update(part.encode())
            h.update(b"\0")
    return h.hexdigest()


GOLDEN = {
    "gclass":
        "81d43c324ef5d9c6ed846299b6bf27d5392764cb067430f9a07e799cc745efdf",
    "clique_chain":
        "eb77da25bf54909396e2a03b6ee95bbfbc7a3430d19a434e3b83ee61b7d2196f",
    "cograph":
        "3397def502c76dc4f3586e25974adc97d4e8b23d3b970f12250efff4dc0af667",
    "interval":
        "ff00ecb2a11981df73d94d4459b633a1626aa320717e4f698bb5819e666bbccf",
    "split":
        "89f283ca4925bf456996624aa26d1612f7b3cd6046374596963e13d8cf7397fa",
}


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_generator_output_is_pinned(family):
    assert digest(family) == GOLDEN[family]
