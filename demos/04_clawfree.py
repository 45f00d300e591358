# The greedy matcher for connected claw-free graphs of even order:
# grow a path until neither extension applies, commit its last edge,
# repeat.  Monotone cursors keep the whole run linear.

import time

from unipm import (Graph, PmincfStats, clique_chain, decide, find_claw,
                   pmincf, random_gclass, verify_pm)

paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
print("paw is claw-free:", find_claw(paw) is None)

# Hand trace with this adjacency order: seed path 0-1, end-extend to 2;
# from 2 no end-extension (0 and 1 are on the path) and no swap (1 has
# no off-path neighbor), so commit 1-2; then the path restarts from 0
# and picks up the pendant 3.
m = pmincf(paw, debug_checks=True)
print("paw matching:", m.pairs)

# decide runs the forced-pair peel first, then this matcher (on any
# graph: a claw can make it fail, and then Edmonds' search takes over),
# and hands each matching the matcher or Edmonds finds to the uniqueness
# verifier.  The paw's pendant vertex lets the peel settle it before the
# matcher runs.
d = decide(paw)
print("paw:", d.method, d.matching.pairs)
c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
d = decide(c4)
print("C4:", d.method, "unique" if d.unique else "not unique,",
      "witness", d.witness.cycle)
two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
print("K2 + K2:", decide(two_k2).matching.pairs)
star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
d = decide(star)
print("K_{1,3}:", d.method, "-", d.reason)

# The linearity story in numbers: cursor advances never exceed 2m,
# because every adjacency list is traversed at most once.
print("\nfamily sweep (chain of pendant-path attachments):")
print(f"{'m':>9} {'advances':>9} {'2m':>9} {'seconds':>8}")
for k in (3_000, 30_000):
    g, _ = clique_chain(k)
    stats = PmincfStats()
    t0 = time.perf_counter()
    match = pmincf(g, stats=stats)
    dt = time.perf_counter() - t0
    assert verify_pm(g, match)
    print(f"{g.edge_count:>9} {stats.cursor_advances:>9} "
          f"{2 * g.edge_count:>9} {dt:>8.3f}")

g, _ = random_gclass(30_000, seed=2)
stats = PmincfStats()
t0 = time.perf_counter()
match = pmincf(g, stats=stats)
print(f"\nrandom class member: n={g.live_count} m={g.edge_count} "
      f"advances={stats.cursor_advances} "
      f"time={time.perf_counter() - t0:.3f}s")
