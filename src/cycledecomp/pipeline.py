"""End-to-end drivers: expander decomposition into cycles plus edges, the
general-graph decomposition, one density-reduction step, and the iterated
log-star loop.

Validity is inviolable and counts are best-effort: any stage failure
degrades the affected edges to singles instead of aborting, and every
degradation is counted in the stats.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from typing import Optional

from .connectivity import PairBatch, RoutedPaths, Skeleton, build_skeleton
from .decomposer import almost_decompose_into_expanders, split_expander_edges
from .expansion import ExpanderParams
from .graph import Cycle, Decomposition, Graph, Path
from .pathscycles import (
    eulerian_cycle_decompose,
    peel_long_cycles,
    well_spread_path_cycle_decompose,
)


# Fixed budgets of the drivers, the same under every preset.
EXHAUSTIVE_CAP = 20  # largest part the expander split certifies exhaustively
DEGREE_FLOOR = 4.0  # density rounds stop at this average degree
TRI_PARTITION_RETRIES = 16  # vertex tri-partition draws before round-robin
SERVE_RETRIES = 8  # greedy routing retries per template or closure batch
SKELETON_BUILD_ATTEMPTS = 3  # template seeds tried per skeleton


def log_star(n: int) -> int:
    """Least k >= 0 with the k-fold base-2 log of n at most 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = 0
    x = float(n)
    while x > 1.0:
        x = math.log2(x)
        k += 1
    return k


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the decomposition drivers.

    Presets: ``engineering`` keeps every stage exercised at desk scale;
    ``paper`` uses the literal asymptotic forms, most of which saturate or
    become vacuous below astronomical n.
    """

    params: ExpanderParams
    ell_route: int = 4
    ell_template: Optional[int] = None
    template_coeff: float = 2 ** -8
    template_budget_frac: float = 0.5
    size_floor: int = 24
    expander_peel: bool = True
    skeleton_min_n: int = 64
    rng_seed: int = 0
    preset: str = "engineering"

    def __post_init__(self):
        if self.ell_route < 1 or self.size_floor < 1:
            raise ValueError("budgets must be positive")
        if self.template_budget_frac <= 0 or self.template_coeff <= 0:
            raise ValueError("template knobs must be positive")

    @classmethod
    def engineering(cls, seed: int = 0) -> "PipelineConfig":
        return cls(
            params=ExpanderParams(2 ** -5, 0.0, "log2sq"),
            rng_seed=seed,
            preset="engineering",
        )

    @classmethod
    def paper(cls, n: int, seed: int = 0) -> "PipelineConfig":
        # literal forms; s and the size floor are astronomically binding
        logn = max(1.0, math.log2(max(n, 2)))
        return cls(
            params=ExpanderParams(2 ** -5, float(logn) ** 273, "const", 1.0),
            ell_route=math.ceil(logn ** 2),
            ell_template=max(4, math.ceil(logn ** 2 / 4)),
            template_coeff=2 ** 7,
            template_budget_frac=1.0,
            size_floor=2 ** 12,
            skeleton_min_n=0,
            expander_peel=False,
            rng_seed=seed,
            preset="paper",
        )

    def resolve_template_p(self, n: int, m_avail: int) -> float:
        """Density for the routing template on an n-vertex host part.

        The asymptotic form c*log^5(n)/n is clamped so the expected host-edge
        cost of embedding the template (edges times route length) stays under
        a fraction of the routable edges; without the clamp the template
        cannot embed edge-disjointly at desk scale.
        """
        if n < 2:
            return 0.0
        total = n * (n - 1) / 2
        paper_form = self.template_coeff * math.log2(n) ** 5 / n
        clamp = self.template_budget_frac * m_avail / (total * self.ell_route)
        return max(0.0, min(1.0, paper_form, clamp))


@dataclass(frozen=True)
class RunReport:
    """Per-iteration degree trajectory of one log-star run."""

    iterations: tuple[dict, ...]

    def degree_trajectory(self) -> list[float]:
        out = [it["d_in"] for it in self.iterations]
        if self.iterations:
            out.append(self.iterations[-1]["d_out"])
        return out


def _derive_seed(seed: int, salt: int) -> int:
    return seed * 1_000_003 + salt


def _close_cycle(p: Path, q: Path) -> Cycle:
    """Join an open path and a routed closure into one simple cycle."""
    x, y = p.vertices[0], p.vertices[-1]
    if q.vertices[0] == y:
        qv, qe = q.vertices, q.edge_ids
    else:
        qv, qe = tuple(reversed(q.vertices)), tuple(reversed(q.edge_ids))
    if qv[0] != y or qv[-1] != x:
        raise ValueError(f"closure {q.ends} does not join the path ends {(x, y)}")
    return Cycle(tuple(p.vertices) + qv[1:-1], tuple(p.edge_ids) + tuple(qe))


def _finish_or_singles(g: Graph) -> tuple[list[Cycle], list[int]]:
    """Eulerian finisher when every degree is even, singles otherwise."""
    if g.m == 0:
        return [], []
    if all(d % 2 == 0 for d in g.degrees().values()):
        return eulerian_cycle_decompose(g), []
    return [], g.edge_id_list()


def _serve_closures(
    skeleton: Skeleton, paths: list[Path], seed: int, retries: int
) -> tuple[list[Cycle], list[int], int]:
    """Close open paths through the skeleton; unroutable paths degrade.

    Returns (cycles, degraded single edge ids, #degraded paths).  All
    closures come from a single serve call so they stay edge-disjoint; on a
    batch failure the stuck pairs are dropped and the rest re-served once.
    """
    pairs = [(p.vertices[0], p.vertices[-1]) for p in paths]
    batch = PairBatch.from_pairs(pairs)
    live = list(range(len(paths)))
    served = skeleton.serve(batch, rng_seed=seed, retries=retries)
    if not isinstance(served, RoutedPaths):
        stuck = set(served.stuck)
        live = [i for i in live if batch.pairs[i] not in stuck]
        if live:
            sub = PairBatch.from_pairs([pairs[i] for i in live])
            served = skeleton.serve(sub, rng_seed=seed + 1, retries=retries)
    cycles: list[Cycle] = []
    singles: list[int] = []
    if isinstance(served, RoutedPaths):
        for i, q in zip(live, served.paths):
            cycles.append(_close_cycle(paths[i], q))
        served_idx = set(live)
        dead = [i for i in range(len(paths)) if i not in served_idx]
    else:
        dead = list(range(len(paths)))
    for i in dead:
        singles.extend(paths[i].edge_ids)
    return cycles, singles, len(dead)


def decompose_expander(g: Graph, cfg: PipelineConfig) -> Decomposition:
    """Decompose one (assumed) expander into cycles plus leftover edges.

    Long cycles are peeled first while the graph is dense, then the residue
    is split into three edge-disjoint parts, a random vertex tri-partition
    is drawn, a routing skeleton is built inside each part, and the
    remainder classes are decomposed into cycles and open paths whose
    closures are routed through the skeletons.  Unused skeleton edges and
    every failed closure come out as single edges.
    """
    support = frozenset(v for v, d in g.degrees().items() if d > 0)
    work = g.subview(vertices=support)
    stats: dict = {
        "strategy": "expander",
        "fallback_paths": 0,
        "closed_paths": 0,
        "skeleton_failures": 0,
        "dropped_template_edges": 0,
        "skeleton_edges": 0,
    }
    if work.m == 0:
        return Decomposition.from_parts(g, [], [], stats=stats)

    cycles: list[Cycle] = []
    singles: list[int] = []
    if cfg.expander_peel:
        min_len = max(3, math.ceil(work.avg_degree()))
        peeled, work = peel_long_cycles(work, min_len)
        cycles.extend(peeled)
        stats["peeled_cycles"] = len(peeled)
        stats["peel_min_len"] = min_len

    if work.m == 0:
        return Decomposition.from_parts(g, cycles, [], stats=stats)

    if work.n < cfg.size_floor:
        # small residues skip the skeleton machinery
        extra, leftover = peel_long_cycles(work, 3)
        cycles.extend(extra)
        # a length-3 peel leaves a forest, so no Eulerian finish is possible
        singles.extend(leftover.edge_id_list())
        stats["strategy"] = "small"
        return Decomposition.from_parts(g, cycles, singles, stats=stats)

    seed = cfg.rng_seed
    split = split_expander_edges(work, cfg.params, 3, seed, check="none")
    parts = split.parts

    # vertex tri-partition; resample until no class is empty
    verts = work.vertex_list()
    rng = random.Random(_derive_seed(seed, 1))
    assign: dict[int, int] = {}
    for _ in range(TRI_PARTITION_RETRIES):
        assign = {v: rng.randrange(3) for v in verts}
        if len(set(assign.values())) == 3:
            break
    else:
        assign = {v: i % 3 for i, v in enumerate(verts)}
    classes = [frozenset(v for v in verts if assign[v] == i) for i in range(3)]

    # closures only pay off when the through classes are large enough to
    # route; below the gate the classes run closure-free
    engage = work.n >= cfg.skeleton_min_n
    stats["skeleton_engaged"] = engage
    skeletons: list[Optional[Skeleton]] = []
    for i, part in enumerate(parts):
        p_t = cfg.resolve_template_p(work.n, part.m)
        got: Optional[Skeleton] = None
        for attempt in range(SKELETON_BUILD_ATTEMPTS if engage else 0):
            built = build_skeleton(
                part,
                classes[i],
                ell_route=cfg.ell_route,
                template_p=p_t,
                ell_template=cfg.ell_template,
                rng_seed=_derive_seed(seed, 2 + i) + 7919 * attempt,
                retries=SERVE_RETRIES,
                on_stuck="drop",
            )
            if isinstance(built, Skeleton):
                got = built
                break
        skeletons.append(got)
        if got is None:
            if engage:
                stats["skeleton_failures"] += 1
        else:
            stats["dropped_template_edges"] += got.dropped_template_edges

    skeleton_eids: set[int] = set()
    for sk in skeletons:
        if sk is not None:
            skeleton_eids |= sk.subgraph.edge_ids
    stats["skeleton_edges"] = len(skeleton_eids)

    # remainder classes: edges within class i+1 or between classes i+1, i+2
    class_eids: list[set[int]] = [set(), set(), set()]
    tab = work.edge_table
    for eid in work.edge_ids - skeleton_eids:
        a, b = tab[eid]
        ca, cb = assign[a], assign[b]
        h = (ca - 1) % 3 if ca == cb else (3 - ca - cb) % 3
        class_eids[h].add(eid)

    closure_eids: set[int] = set()
    for i in range(3):
        h_graph = work.subview(edge_ids=class_eids[i])
        if h_graph.m == 0:
            continue
        ws = well_spread_path_cycle_decompose(h_graph, mode="euler")
        cycles.extend(ws.cycles)
        open_paths = [p for p in ws.paths if p.edge_ids]
        if not open_paths:
            continue
        if skeletons[i] is None:
            for p in open_paths:
                singles.extend(p.edge_ids)
            stats["fallback_paths"] += len(open_paths)
            continue
        closed, degraded, n_dead = _serve_closures(
            skeletons[i], open_paths, _derive_seed(seed, 5 + i), SERVE_RETRIES
        )
        cycles.extend(closed)
        singles.extend(degraded)
        stats["fallback_paths"] += n_dead
        stats["closed_paths"] += len(closed)
        for c in closed:
            closure_eids.update(set(c.edge_ids) & skeleton_eids)

    # unused skeleton edges: salvage cycles, degrade only the open paths
    residual = skeleton_eids - closure_eids
    stats["skeleton_residual_cycles"] = 0
    if residual:
        ws = well_spread_path_cycle_decompose(work.subview(edge_ids=residual), mode="euler")
        cycles.extend(ws.cycles)
        stats["skeleton_residual_cycles"] = len(ws.cycles)
        for p in ws.paths:
            singles.extend(p.edge_ids)
    return Decomposition.from_parts(g, cycles, singles, stats=stats)


def decompose_general(g: Graph, cfg: PipelineConfig) -> Decomposition:
    """Decompose any graph: split into expander parts, decompose each.

    Edges removed by the splitting recursion come out as singles; every
    part (certified or not) runs through the expander driver with a seed
    derived from its index.
    """
    if g.m == 0:
        return Decomposition.from_parts(g, [], [], stats={"strategy": "general", "parts": 0})
    res = almost_decompose_into_expanders(
        g, cfg.params, cap=EXHAUSTIVE_CAP, seed=cfg.rng_seed
    )
    cycles: list[Cycle] = []
    singles: list[int] = sorted(res.removed)
    part_sizes: list[int] = []
    for idx, part in enumerate(res.parts):
        part_sizes.append(part.n)
        if part.m == 0:
            continue
        sub = replace(cfg, rng_seed=_derive_seed(cfg.rng_seed, 101 + idx))
        d = decompose_expander(part, sub)
        cycles.extend(d.cycles)
        singles.extend(d.single_edges)
    stats = {
        "strategy": "general",
        "parts": len(res.parts),
        "part_sizes": part_sizes,
        "removed_edges": len(res.removed),
        "recursion_depth": res.max_depth,
    }
    return Decomposition.from_parts(g, cycles, singles, stats=stats)


def density_step(g: Graph, cfg: PipelineConfig) -> tuple[list[Cycle], Graph, dict]:
    """One density-reduction round: peel long cycles, decompose the rest.

    Returns the edge-disjoint cycles found, the leftover view (input minus
    all cycle edges), and a report with the in/out average degrees.
    """
    t0 = time.perf_counter()
    d_in = g.avg_degree()
    min_len = max(3, math.ceil(d_in))
    peeled, residual = peel_long_cycles(g, min_len)
    dec = decompose_general(residual, cfg)
    cycles = peeled + list(dec.cycles)
    leftover = residual.subview(edge_ids=frozenset(dec.single_edges))
    report = {
        "d_in": d_in,
        "d_out": leftover.avg_degree(),
        "min_len": min_len,
        "cycles_peeled": len(peeled),
        "cycles_general": len(dec.cycles),
        "edges_left": leftover.m,
        "seconds": time.perf_counter() - t0,
    }
    return cycles, leftover, report


def decompose_logstar(
    g: Graph, cfg: PipelineConfig
) -> tuple[Decomposition, RunReport]:
    """Iterate density reduction until the average degree hits the floor.

    Runs at most log*(n) + 2 rounds.  When the final leftover has all
    degrees even, it is consumed into cycles; otherwise its edges come out
    as singles.
    """
    cap = log_star(g.n) + 2
    cur = g
    cycles: list[Cycle] = []
    iterations: list[dict] = []
    it = 0
    while it < cap and cur.m > 0 and cur.avg_degree() > DEGREE_FLOOR:
        sub = replace(cfg, rng_seed=_derive_seed(cfg.rng_seed, 7_001 + it))
        got, cur, rep = density_step(cur, sub)
        if rep["d_out"] > rep["d_in"] + 1e-9:
            raise RuntimeError(f"average degree increased: {rep['d_in']} -> {rep['d_out']}")
        cycles.extend(got)
        iterations.append(rep)
        it += 1
    fin_cycles, singles = _finish_or_singles(cur)
    cycles.extend(fin_cycles)
    dec = Decomposition.from_parts(
        g,
        cycles,
        singles,
        stats={
            "strategy": "logstar",
            "iterations": len(iterations),
            "iteration_cap": cap,
            "eulerian_finished": bool(fin_cycles),
            "preset": cfg.preset,
            "seed": cfg.rng_seed,
        },
    )
    return dec, RunReport(iterations=tuple(iterations))
