# Forcing-set elimination: the linear-time decision for cographs and
# split graphs, and where it stops working.

from unipm import (Graph, Matching, decide, enumerate_pms, find_forcing_set,
                   is_clique)

# P4 is bipartite, a path, and elimination walks right through it.  It
# takes pendants first in, first out: 0 and 3 are queued at the start,
# so 3 goes before 2, the pendant that 0's pair leaves; the order is
# ((0, 1), (3, 2)).  Any order that empties the graph finds the same
# matching, and an order empties it iff every order does.
p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
cert = find_forcing_set(p4)
print("P4 elimination order:", cert.forced)
print("matching:", Matching(cert.forced).pairs)

# C4 never has a degree-1 vertex, and indeed has two matchings.
c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
print("C4:", find_forcing_set(c4))

# The paw is a split graph by construction: the triangle C = {0, 1, 2}
# is a clique and the pendant S = {3} an independent set.
paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
clique, indep = {0, 1, 2}, {3}
print("\npaw C is a clique:", is_clique(paw, clique))
cert = find_forcing_set(paw)
print("paw forcing:", cert.forced, "->", Matching(cert.forced).pairs)

# In a perfect matching of a split graph, S matches into C and the rest
# of C pairs up inside it; two such clique pairs could swap partners,
# so a unique matching needs |C| - |S| in {0, 2}.  The paw has 3 - 1.
print("paw |C| - |S|:", len(clique) - len(indep))

# K4 split as C = {0, 1, 2, 3}, S = {} has 4 - 0 = 4: two clique pairs,
# and indeed 3 matchings.
k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
print("K4 |C| - |S|:", 4 - 0, "| oracle count:", len(enumerate_pms(k4, 5)),
      "| forcing:", find_forcing_set(k4))

# On general graphs success still certifies uniqueness, but failure
# proves nothing: the flower has a unique matching and min degree 2,
# so elimination cannot even start.
flower = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5),
                              (0, 3), (0, 2), (1, 4), (1, 5)])
print("\nflower oracle count:", len(enumerate_pms(flower, 2)))
print("flower min degree:", min(map(len, flower.adjacency)))
print("flower forcing:", find_forcing_set(flower))

# decide (behind `unipm check`) peels pendant triangles too, which
# settles the flower: 2-3 and 4-5 hang off 0 and 1, and 0-1 is left.
print("flower decided by:", decide(flower).method,
      "| forcing set found:", find_forcing_set(flower) is not None)
