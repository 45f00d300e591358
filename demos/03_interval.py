# Interval representations: from intervals to graphs to matchings with
# the min-right-endpoint rule.

from unipm import (IntervalPMError, IntervalRep, enumerate_pms,
                   intersection_graph, interval_instance, interval_pm,
                   is_unique_pm, normalize_endpoints)

# Four intervals on a line.  0 spans almost everything, 1 is early and
# short, 3 sits inside 2.
rep = IntervalRep(((1, 10), (2, 3), (4, 9), (5, 6)))
g = intersection_graph(rep)
print("edges:", g.live_edges())

# The rule picks u* = vertex with the smallest right endpoint (1, with
# r=3), matches it to its neighbor with the smallest right endpoint
# (0), and repeats: next u* is 3 (r=6), matched to 2.
m = interval_pm(rep)
print("matching:", m.pairs)
print("oracle confirms unique:", len(enumerate_pms(g, 2)) == 1)

# When the unique-matching promise fails, the rule still returns sane
# output, but only verification tells you what it means.
c4ish = IntervalRep(((1, 4), (2, 6), (3, 8), (5, 9)))
m = interval_pm(c4ish)
w = is_unique_pm(intersection_graph(c4ish), m)
print("\nC4-like rep returned", m.pairs, "but witness:", w.cycle)

# Or it gets stuck, which proves there is no perfect matching: the
# sweep builds a maximum matching, and the stuck vertex is exposed in it.
try:
    interval_pm(IntervalRep(((1, 2), (3, 4))))
except IntervalPMError as exc:
    print("disjoint intervals:", exc)

# Distinct endpoints are a hard precondition.  The normalizer exists
# for building valid representations, and it tells you up front that
# resolving genuine point-intersections can change the graph.
messy = [(0, 5), (0, 3), (3, 5)]
clean = normalize_endpoints(messy)
print("\nnormalized:", clean.intervals)

# Random representations come out valid by construction.
rep = interval_instance(8, seed=3)
print("random rep:", rep.intervals)
print("its matching:", interval_pm(rep).pairs)
