"""End-to-end drivers: one expander part into cycles plus edges, one
density-reduction round, and the iterated log-star loop.

Only ``decompose_expander`` returns a :class:`Stage` of cycles, single
edge ids and counters; only ``decompose_logstar`` builds a
:class:`Decomposition`.
Validity is inviolable and counts are best-effort: an edge that no stage
puts in a cycle comes out as a single.

A round peels long cycles at the average degree; ``engineering`` then
peels each residue component as an expander part, and ``paper`` passes the
residue on whole to the next round.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

from .graph import Cycle, Decomposition, Graph
from .pathscycles import eulerian_cycle_decompose, peel_long_cycles

# bound only because perfbench/tracing.py patches these names here; no stage
# calls them
almost_decompose_into_expanders = None
split_expander_edges = None
well_spread_path_cycle_decompose = None
build_skeleton = None


DEGREE_FLOOR = 4.0  # average degree that ends the rounds and gates the length-3 peel

PRESETS = ("engineering", "paper")


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
    """A preset and a seed: the whole configuration of the drivers.

    No stage reads the seed; it is kept because the decomposition's
    ``stats["seed"]`` records it, and that is part of the output's bytes.
    """

    preset: str
    rng_seed: int = 0

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}, expected one of {PRESETS}")

    @classmethod
    def engineering(cls, seed: int = 0) -> "PipelineConfig":
        return cls("engineering", seed)

    @classmethod
    def paper(cls, seed: int = 0) -> "PipelineConfig":
        return cls("paper", seed)


class Stage(NamedTuple):
    """What one stage hands back: cycles, single edge ids, its counters and
    the residual graph on the singles."""

    cycles: list[Cycle]
    singles: list[int]
    stats: dict
    rest: Graph


@dataclass(frozen=True)
class RunReport:
    """Per-iteration degree trajectory of one log-star run."""

    iterations: tuple[dict, ...]

    def degree_trajectory(self) -> list[float]:
        out = [it["d_in"] for it in self.iterations]
        if self.iterations:
            out.append(self.iterations[-1]["d_out"])
        return out


def _finish_or_singles(g: Graph) -> tuple[list[Cycle], list[int]]:
    """Eulerian finisher when every degree is even, singles otherwise."""
    if g.m == 0:
        return [], []
    if all(d % 2 == 0 for d in g.degrees().values()):
        return eulerian_cycle_decompose(g), []
    return [], g.edge_id_list()


def decompose_expander(g: Graph, cfg: PipelineConfig) -> Stage:
    """Decompose one expander part into cycles plus leftover edges.

    g is one part: a component, or a graph whose edges form one component
    beside isolated vertices.  The part's average degree is taken over the
    vertices its edges touch, so isolated vertices change nothing.  Long
    cycles of at least that length are peeled.  A residue of average degree
    at most ``DEGREE_FLOOR`` is peeled again at length 3, which leaves a
    forest; a denser residue comes back whole, for the next round to peel
    long.  Every residue edge is handed back as a single, and ``rest`` is
    the residue itself, on g's vertices, carrying the peel's arrays and its
    last finder answer.  The stats are exactly the counters in
    ``PART_COUNTERS``.  ``cfg`` is unused; perfbench/tracing.py wraps the
    call with it.
    """
    # the vertices g's edges touch; an edgeless g touches none, and 1 keeps
    # its degree at 0.0
    touched = sum(map(bool, g.arrays()[0].values())) or 1
    min_len = max(3, math.ceil(2.0 * g.m / touched))
    peeled, rest = peel_long_cycles(g, min_len)
    short: list[Cycle] = []
    # at min_len 3 the first peel already left a forest
    if rest.m and min_len > 3 and 2.0 * rest.m / touched <= DEGREE_FLOOR:
        short, rest = peel_long_cycles(rest, 3)
    stats = {"peeled_cycles": len(peeled), "short_cycles": len(short)}
    return Stage(peeled + short, rest.edge_id_list(), stats, rest)


# counters of each expander part that a density round sums into its report
PART_COUNTERS = ("peeled_cycles", "short_cycles")


def density_step(g: Graph, cfg: PipelineConfig) -> tuple[list[Cycle], Graph, dict]:
    """One density-reduction round: peel long cycles, then peel each part.

    Long cycles of length at least the average degree are peeled first.
    Under ``engineering`` every component of the residue is counted in
    ``parts``, and each one with an edge is a part that runs through
    ``decompose_expander``; under ``paper`` the residue is passed on whole,
    and ``parts`` is 0.  Returns the edge-disjoint cycles found, the
    leftover view (input minus all cycle edges), and a report with the
    in/out average degrees, the edge ledger and the parts' counters.  A
    lone part is the residue itself, isolated vertices and all, and its
    ``rest`` is the leftover, so the next round starts from that peel's
    arrays and finder answer.  Several parts are component views, and the
    leftover is the residue's view on their singles: their residues are not
    held, since on many small parts the collector's extra passes over them
    cost more than their arrays save.
    """
    t0 = time.perf_counter()
    d_in = g.avg_degree()
    min_len = max(3, math.ceil(d_in))
    peeled, residual = peel_long_cycles(g, min_len)
    cycles = list(peeled)
    leftover = residual
    report = {"d_in": d_in, "min_len": min_len, "edges_in": g.m, "parts": 0}
    report.update(dict.fromkeys(PART_COUNTERS, 0))
    if residual.m and cfg.preset == "engineering":
        comps = residual.components()
        report["parts"] = len(comps)
        parts = [comp for comp in comps if len(comp) > 1]
        lone = len(parts) == 1
        singles: list[int] = []
        for part in [residual] if lone else map(residual.component, parts):
            got = decompose_expander(part, cfg)
            cycles.extend(got.cycles)
            singles.extend(got.singles)
            for key in PART_COUNTERS:
                report[key] += got.stats[key]
        leftover = got.rest if lone else residual.subview(edge_ids=singles)
    report.update(
        d_out=leftover.avg_degree(),
        cycles_peeled=len(peeled),
        cycles_general=len(cycles) - len(peeled),
        cycle_edges=sum(len(c.edge_ids) for c in cycles),
        edges_left=leftover.m,
        seconds=time.perf_counter() - t0,
    )
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
        got, cur, rep = density_step(cur, cfg)
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
