"""Carving a graph into certified expander parts.

Two tools: a recursive splitter that cuts along expansion violations until
every part certifies, and a randomized edge partition that divides one
expander into k thinner ones.  Both return parts whose edge sets partition
the input exactly, so later stages can work per part without bookkeeping.
"""

import itertools

from cycledecomp.decomposer import (
    almost_decompose_into_expanders,
    split_expander_edges,
    split_target_params,
)
from cycledecomp.expansion import ExpanderParams
from cycledecomp.graph import Graph

# two K_5 cliques joined by a single bridge: the bridge is the obvious cut
edges = list(itertools.combinations(range(5), 2))
edges += [(a + 5, b + 5) for a, b in itertools.combinations(range(5), 2)]
edges += [(4, 5)]
g = Graph.from_edges(10, edges)
print("host:", g, "(two K_5s plus a bridge)")

params = ExpanderParams(epsilon=0.22, s=0.0, denominator="const", denominator_const=1.0)
res = almost_decompose_into_expanders(g, params, seed=0)
print(f"parts: {res.part_sizes()} (vertex counts), "
      f"removed edges: {len(res.removed)}, depth: {res.max_depth}")
for part, cert in zip(res.parts, res.certified):
    print(f"  part n={part.n} m={part.m} certified: {cert}")
covered = set(res.removed)
for part in res.parts:
    covered |= part.edge_ids
assert covered == g.edge_ids  # exact partition, nothing lost
print("parts + removed partition all", g.m, "edges")

# splitting one expander into k: each edge goes to a uniform part, and each
# part is verified against the relaxed target (epsilon/4, s/2 - ...)
k12 = Graph.from_edges(12, list(itertools.combinations(range(12), 2)))
base = ExpanderParams(epsilon=2**-5, s=2.0)
target = split_target_params(base, k=3, n=12)
print(f"\nK_12 split 3 ways: target relaxes to epsilon={target.epsilon} s={target.s}")
split = split_expander_edges(k12, base, k=3, rng_seed=1)
for i, (part, verdict) in enumerate(zip(split.parts, split.verdicts)):
    mark = "?" if verdict is None else verdict.is_expander
    print(f"  class {i}: m={part.m} expander={mark}")
print(f"verified in {split.attempts} attempt(s); "
      f"edge counts sum to {sum(p.m for p in split.parts)} = {k12.m}")
