# Forcing-set elimination: the linear-time decision for cographs and
# split graphs, and where it stops working.

from unipm import (Graph, enumerate_pms, find_forcing_set, is_cograph_bruteforce,
                   is_split_bruteforce, split_balance)
from unipm.cli import decide

# P4 is bipartite, a path, and elimination walks right through it.
p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
cert = find_forcing_set(p4)
print("P4 elimination order:", cert.forced)
print("matching:", cert.matching.pairs)

# C4 never has a degree-1 vertex, and indeed has two matchings.
c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
print("C4:", find_forcing_set(c4))

# The paw is a split graph: clique {0,1,2}, independent {3}.
paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
print("\npaw is split:", is_split_bruteforce(paw))
print("paw is cograph:", is_cograph_bruteforce(paw))
cert = find_forcing_set(paw)
print("paw forcing:", cert.forced, "->", cert.matching.pairs)

# Unique-matching split graphs are balanced: |C| - |S| is 0 or 2.
s, c = is_split_bruteforce(paw)
print("balance |C|-|S| in {0,2}:", split_balance(paw, s, c))

# K4 is split too, but 4 - 0 = 4: consistent with its 3 matchings.
k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
s, c = is_split_bruteforce(k4)
print("K4 balance:", split_balance(k4, s, c),
      "| oracle count:", len(enumerate_pms(k4, 5)))

# On general graphs success still certifies uniqueness, but failure
# proves nothing: the flower has a unique matching and min degree 2,
# so elimination cannot even start.
flower = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5),
                              (0, 3), (0, 2), (1, 4), (1, 5)])
print("\nflower oracle count:", len(enumerate_pms(flower, 2)))
print("flower min degree:",
      min(flower.live_degree(u) for u in flower.live_vertices()))
print("flower forcing:", find_forcing_set(flower))

# decide (behind `unipm check`) peels pendant triangles too, which
# settles the flower: 2-3 and 4-5 hang off 0 and 1, and 0-1 is left.
print("flower decided by:", decide(flower).method,
      "| forcing set found:", find_forcing_set(flower) is not None)
