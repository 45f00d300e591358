# Three ways to decide whether a perfect matching is unique, and how
# they back each other up.

from unipm import (Graph, Matching, enumerate_pms, is_unique_pm, kotzig_peel,
                   verify_pm)

# The paw: a triangle 0-1-2 with a pendant vertex 3 hanging off 0.
paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])

print("== paw ==")
pms = enumerate_pms(paw, cap=5)
print("oracle says it has", len(pms), "perfect matching(s):", pms[0].pairs)

m = pms[0]
print("is_unique_pm:", is_unique_pm(paw, m), "(None means unique)")
print("kotzig_peel:", kotzig_peel(paw, m))

# C4 has two perfect matchings; the verifier hands back an alternating
# cycle, and swapping along it produces the other matching.
print("\n== C4 ==")
c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
m = Matching([(0, 1), (2, 3)])
witness = is_unique_pm(c4, m)
print("witness cycle:", witness.cycle)
other = witness.swapped(m)
print("swapped matching:", other.pairs, "valid:", verify_pm(c4, other))

# The interesting case: two triangles tied together by one matched edge.
# Its matching is unique, but the naive alternating-cycle digraph is
# cyclic, so the verifier's DFS is inconclusive and it deletes forced
# pairs instead: the pendant triangles 2-3 and 4-5, then the edge 0-1.
print("\n== flower ==")
flower = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5),
                              (0, 3), (0, 2), (1, 4), (1, 5)])
pms = enumerate_pms(flower, cap=5)
print("oracle count:", len(pms))
print("is_unique_pm:", is_unique_pm(flower, pms[0]))
print("kotzig_peel:", kotzig_peel(flower, pms[0]))

# One extra edge closes an alternating cycle and uniqueness is gone.
flower.add_edge(2, 4)
pms = enumerate_pms(flower, cap=5)
print("after adding 2-4, oracle count:", len(pms))
print("witness:", is_unique_pm(flower, pms[0]).cycle)
