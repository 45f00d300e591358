"""One uniqueness decision for any graph, behind ``unipm check``,
``unipm interval`` and the library."""

from __future__ import annotations

from dataclasses import dataclass

from .clawfree import pmincf
from .forcing import _forced_pairs
from .graph import Graph, Matching
from .interval import IntervalPMError, IntervalRep, interval_pm
from .uniqueness import AlternatingCycleWitness, is_unique_pm, maximum_matching


@dataclass(frozen=True)
class Decision:
    """Whether a graph has a unique perfect matching, and the proof.

    ``method`` names what found the matching, or showed there is none:
    ``forcing`` (the forced-pair peel emptied the graph), ``clawfree``
    (the greedy matcher), ``interval`` (the sweep) or ``edmonds``.
    ``matching`` is a perfect matching, or None when there is none;
    ``witness`` is an alternating cycle through it when it is not the
    only one.
    """

    method: str
    matching: Matching | None = None
    witness: AlternatingCycleWitness | None = None

    @property
    def unique(self) -> bool:
        return self.matching is not None and self.witness is None

    @property
    def reason(self) -> str | None:
        return "no perfect matching" if self.matching is None else None


def decide(g: Graph, rep: IntervalRep | None = None) -> Decision:
    """Decide whether g has a unique perfect matching; any graph will do.

    One forced-pair peel runs on a view of g; each pair it deletes lies
    in every perfect matching, so it settles g when it empties it (as it
    does every class member), and an odd remainder has none.  One
    matcher runs on what it leaves: the greedy claw-free matcher, or,
    given ``rep``, an interval representation of g (its order is checked
    up front), the interval sweep, whose failure proves there is no
    perfect matching once every live edge is checked to overlap in rep.
    Any other ValueError of the matcher or the verifier hands the
    remainder to Edmonds' maximum matching; one that is not perfect
    means g has none.  The peeled pairs plus the remainder's matching
    are g's matching, and a witness cycle found in the remainder
    alternates with it in g.
    """
    if rep is not None and rep.n != g.n_total:
        raise ValueError(f"the representation has {rep.n} intervals for "
                         f"a graph on {g.n_total} vertices")
    rest = g.view()
    pairs = [(x, y) for x, y, _ in _forced_pairs(rest)]
    live = rest.live_count
    if not live:
        return Decision("forcing", Matching(pairs))
    if live % 2:
        return Decision("edmonds" if rep is None else "interval")
    try:
        # is_unique_pm raises ValueError on a matching that is not perfect
        if rep is None:
            method, m = "clawfree", pmincf(rest)
        else:
            method, m = "interval", interval_pm(rep, rest.removed)
        witness = is_unique_pm(rest, m)
    except ValueError as exc:
        if isinstance(exc, IntervalPMError) and _holds_every_edge(rep, rest):
            return Decision("interval")
        method, m = "edmonds", maximum_matching(rest)
        if 2 * len(m) < live:
            return Decision(method)
        witness = is_unique_pm(rest, m)
    return Decision(method, Matching(pairs + m.pairs), witness)


def _holds_every_edge(rep: IntervalRep, g: Graph) -> bool:
    """Whether the intervals of each live edge of g overlap.  Then g's
    live part lies inside their intersection graph on the same vertices,
    so it has no perfect matching when that graph has none.  O(n + m)."""
    intervals, removed = rep.intervals, g.removed
    for u, nbrs in enumerate(g.adjacency):
        if not removed[u]:
            l, r = intervals[u]
            for w in nbrs:
                if not (removed[w] or (intervals[w][0] < r
                                       and l < intervals[w][1])):
                    return False
    return True
