"""Edge-disjoint routing through a vertex set.

Connecting many vertex pairs at once by edge-disjoint paths whose interiors
stay inside a designated set V is the paper's routing primitive.  This demo
routes a batch greedily, then lets the exact matching oracle prove that a
batch cannot be routed.
"""

import itertools

from cycledecomp.connectivity import PairBatch, RoutedPaths, route_pairs
from cycledecomp.graph import Graph

g = Graph.from_edges(32, list(itertools.combinations(range(32), 2)))
V = set(range(16))
print("host: K_32, through-set V = {0..15}")

batch = PairBatch.from_pairs([(20, 25), (21, 26), (22, 27)])
# drop the direct edges so the paths actually have to detour through V
host = g.subview(edge_ids=g.edge_ids - {g.edge_id(20, 25), g.edge_id(21, 26), g.edge_id(22, 27)})
routed = route_pairs(host, batch, V, ell=3, rng_seed=0)
assert isinstance(routed, RoutedPaths)
print(f"\nrouted {len(routed.paths)} pairs, interiors inside V, max length {routed.ell}:")
for p in routed.paths:
    print("  ", " - ".join(str(v) for v in p.vertices))
assert not routed.validate(host, batch)  # edge-disjointness etc, empty = clean

# the same call proves infeasibility when asked for too much: on a 4-cycle
# the crossing pairs cannot both be routed, and the matching oracle says so
c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
crossing = PairBatch.from_pairs([(0, 2), (1, 3)])
fail = route_pairs(c4, crossing, {0, 1, 2, 3}, ell=2, strategy="matching_oracle")
print(f"\nC_4 crossing pairs: routed={isinstance(fail, RoutedPaths)} ({fail.reason})")
