"""Instance sets for the benchmark's workloads, built from the workload seed.

Every workload is chosen so that one layer of the pipeline does most of the
work (see README.md for the measured shares):

- dense: G(n, 1/2) graphs drawn from the seed, where long-cycle peeling
  dominates;
- sparse: two fixed graphs of small G(k, 1/2) communities, average degree
  about 7.5, where every community is certified exhaustively;
- complete: complete graphs, the only inputs on which skeleton closures
  fire; they have nothing to draw;
- bipartite: the Gallai lower-bound family plus all-even graphs drawn from
  the seed, where decomposition is fast and the graph layer (parse, JSON,
  validators) shows.

Smoke sizes run every workload in a second or two, for the benchmark's own
test; they say nothing about performance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("dense", "sparse", "complete", "bipartite")


@dataclass(frozen=True)
class Instance:
    label: str
    text: str  # edge-list text, exactly what the CLI would read
    n: int
    floor: int  # proven lower bound on the piece count


def parity_floor(g) -> int:
    """Fewest pieces any cycle-plus-single-edge decomposition of g can have.

    Every odd-degree vertex ends a single edge, so there are at least
    odd/2 singles; every cycle has at most as many edges as there are
    vertices of degree >= 2.
    """
    deg = g.degrees().values()
    singles = sum(d % 2 for d in deg) // 2
    longest = sum(1 for d in deg if d >= 2)
    rest = g.m - singles
    if rest <= 0:
        return singles
    if longest < 3:
        return g.m
    return singles + -(-rest // longest)


def gen_communities(bench, graph, count: int, k: int, p: float, seed: int):
    """Disjoint union of ``count`` independent G(k, p) communities."""
    rng = random.Random(seed)
    pairs = []
    for c in range(count):
        sub = bench.gen_gnp(k, p, rng.randrange(2 ** 31))
        tab = sub.edge_table
        pairs.extend((c * k + tab[e][0], c * k + tab[e][1]) for e in sub.edge_id_list())
    return graph.Graph.from_edges(count * k, pairs)


# full size first, smoke size second
DENSE = ((384, 6), (48, 2))  # (n, instances)
# (communities, community size, generator seeds); the same for every workload
# seed, because the exhaustive certifier's cost follows the sizes of the
# parts it is handed and swings 100-fold between random sparse graphs
SPARSE = ((32, 16, (0, 1)), (4, 12, (0,)))
COMPLETE = ((128, 144), (24,))  # orders
GALLAI = (((1, 2, 5), 1024, 2), ((1,), 64, 1))  # (ks, n, all-even instances)


def build(name: str, seed: int, smoke: bool, mods) -> list[Instance]:
    """Generate the instance set of workload ``name`` from ``seed``."""
    bench, graph = mods["bench"], mods["graph"]
    size = 1 if smoke else 0
    base = 1000 * seed
    out: list[tuple[str, object, int]] = []  # (label, graph, gallai floor or -1)
    if name == "dense":
        n, count = DENSE[size]
        out = [(f"gnp({n},0.5,{base + i})", bench.gen_gnp(n, 0.5, base + i), -1)
               for i in range(count)]
    elif name == "sparse":
        count, k, seeds = SPARSE[size]
        out = [(f"communities({count}x{k},0.5,{s})",
                gen_communities(bench, graph, count, k, 0.5, s), -1) for s in seeds]
    elif name == "complete":
        out = [(f"K{n}", bench.gen_gnp(n, 1.0, 0), -1) for n in COMPLETE[size]]
    elif name == "bipartite":
        ks, n, evens = GALLAI[size]
        out = [(f"gallai({k},{n})", bench.gen_gallai_bipartite(k, n),
                bench.gallai_lower_bound(k, n)) for k in ks]
        out += [(f"eulerian({n},8/{n},{base + i})",
                 bench.gen_eulerian(n, 8 / n, base + i), -1) for i in range(evens)]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return [
        Instance(label, graph.format_edge_list(g), g.n,
                 gallai if gallai >= 0 else parity_floor(g))
        for label, g, gallai in out
    ]
