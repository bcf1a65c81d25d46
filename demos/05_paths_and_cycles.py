"""Path and cycle extraction: the decomposition workhorses.

Three tools an edge decomposition leans on: Euler-based splitting of
even-degree graphs into cycles, the well-spread path+cycle decomposition
(every vertex ends at most two paths), and the DFS long-cycle search with
its greedy peeling loop.
"""

import random

from cycledecomp.graph import Graph
from cycledecomp.pathscycles import (
    eulerian_cycle_decompose,
    find_long_cycle_dfs,
    peel_long_cycles,
    well_spread_path_cycle_decompose,
)

# every even-degree graph splits into cycles exactly (no leftover)
theta = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                             (0, 3), (1, 4)])
# make all degrees even first: the 8 edges above leave 0,1,3,4 at odd degree
even = theta.subview(edge_ids=theta.edge_ids - {theta.edge_id(0, 3), theta.edge_id(1, 4)})
cycles = eulerian_cycle_decompose(even)
print("even graph (C_6):", [list(c.vertices) for c in cycles])

# general graphs get paths too, but in a controlled way: each odd vertex
# terminates exactly one path, so #paths = #odd/2 and no vertex ends more
# than two of them
rng = random.Random(11)
g = Graph.from_edges(14, sorted({tuple(sorted(rng.sample(range(14), 2)))
                                 for _ in range(30)}))
ws = well_spread_path_cycle_decompose(g, mode="euler")
odd = sum(1 for d in g.degrees().values() if d % 2)
mult = ws.endpoint_multiplicity()
print(f"\nrandom graph n={g.n} m={g.m}: {len(ws.cycles)} cycles, "
      f"{len(ws.paths)} paths for {odd} odd vertices, "
      f"max endpoint multiplicity {max(mult.values())}")
covered = sum(len(c.edge_ids) for c in ws.cycles) + sum(p.length for p in ws.paths)
assert covered == g.m  # exact edge partition

# the long-cycle search: a DFS process snapshots its path at the balance
# point and reconnects the two ends around the middle third
ring = [(i, (i + 1) % 24) for i in range(24)]
chords = [(i, i + 12) for i in range(12)]
mobius = Graph.from_edges(24, ring + chords)
c = find_long_cycle_dfs(mobius)
print(f"\nMobius-Kantor-ish host n=24 m={mobius.m}: "
      f"long cycle of length {c.length}")

peeled, rest = peel_long_cycles(mobius, min_len=8)
print(f"peeling at min length 8: {len(peeled)} cycles "
      f"({[c.length for c in peeled]}), {rest.m} edges left")
