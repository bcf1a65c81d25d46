"""The full engine: decompose any graph into cycles plus few single edges.

decompose_logstar runs density rounds until the residual's average degree
is at most DEGREE_FLOOR or log*(n) + 2 rounds have run: each round peels
long cycles at the average degree, takes each component of the rest as an
expander part, and peels each part at its own average degree; a part whose
residue is sparse is peeled again at length 3, and what is left goes on to
the next round.  The paper preset is the bare loop: each round peels long
cycles and passes the rest on whole.  The run report shows the density
trajectory; the stats dict records the preset, the seed, how many density
rounds ran and whether the Eulerian finisher closed the residual.  Piece
counts stay linear in n, which is the whole point.
"""

import random
from dataclasses import replace

from cycledecomp.graph import Graph, validate_decomposition
from cycledecomp.pipeline import PipelineConfig, decompose_logstar, log_star

rng = random.Random(5)
n = 256
pairs = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(4 * n)})
g = Graph.from_edges(n, pairs)
print(f"input: random graph n={n} m={g.m} (avg degree {g.avg_degree():.1f})")

cfg = replace(PipelineConfig.engineering(), rng_seed=0)
dec, report = decompose_logstar(g, cfg)
assert validate_decomposition(g, dec).ok

print(f"\n{len(dec.cycles)} cycles + {len(dec.single_edges)} single edges "
      f"= {dec.pieces} pieces ({dec.pieces / n:.2f} per vertex, "
      f"log*({n}) = {log_star(n)})")
print("density trajectory:", " -> ".join(f"{d:.2f}" for d in report.degree_trajectory()))
for it in report.iterations:
    print(f"  iteration: d_in={it['d_in']:.2f} d_out={it['d_out']:.2f} "
          f"peeled={it['cycles_peeled']} general={it['cycles_general']} "
          f"edges_left={it['edges_left']}")

interesting = ("preset", "seed", "iterations", "iteration_cap", "eulerian_finished")
print("stats:", {k: dec.stats[k] for k in interesting})

# all-even inputs close completely: the finisher converts the residual into
# cycles, so nothing is left over
even_pairs = [(i, (i + 1) % 64) for i in range(64)] + [(i, (i + 2) % 64) for i in range(64)]
even = Graph.from_edges(64, even_pairs)
dec2, _ = decompose_logstar(even, cfg)
print(f"\nall-even input n=64 m={even.m}: {len(dec2.cycles)} cycles, "
      f"{len(dec2.single_edges)} singles")

# the paper preset's removal budget s = log2(n)^273 covers every degree, so
# its expander split would remove every edge: each density round is a peel
# at ceil(d), and the rest is leftover for the next round; same validity
# contract
paper_cfg = PipelineConfig.paper(seed=0)
dec3, _ = decompose_logstar(g, paper_cfg)
assert validate_decomposition(g, dec3).ok
print(f"paper preset on the same input: {dec3.pieces} pieces "
      f"(engineering preset: {dec.pieces})")
