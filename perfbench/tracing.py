"""Spans and counters recorded around calls into each layer of the program.

Nothing in the program is changed on disk: ``patched`` swaps each traced
function at the module binding its caller looks it up in (``pipeline``
binds its imports at import time, so it is patched there), and restores the
originals on exit.  Spans are kept in memory as
``[name, start, end, parent, execution]``; ``execution`` numbers one run of
one instance, and ``parent`` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

LAYERS = ("graph", "pipeline", "pathscycles", "decomposer", "expansion", "connectivity")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.executions: list[tuple[str, int]] = []  # (instance label, repeat)
        self.counts: list[Counter] = []  # per execution
        self._stack: list[int] = []
        self._min_len: list[int] = []  # min_len of the enclosing peel calls

    def begin(self, label: str, repeat: int) -> None:
        self.executions.append((label, repeat))
        self.counts.append(Counter())

    def count(self, key: str, k: int = 1) -> None:
        self.counts[-1][key] += k

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                len(self.executions) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def to_json(self) -> dict:
        return {
            "span_fields": ["name", "start", "end", "parent", "execution"],
            "executions": self.executions,
            "spans": self.spans,
        }


@contextlib.contextmanager
def patched(tr: Tracer, mods):
    """Route the traced layer calls through ``tr`` for the duration."""
    pipeline, pathscycles = mods["pipeline"], mods["pathscycles"]
    decomposer, connectivity = mods["decomposer"], mods["connectivity"]
    orig = {
        (pipeline, "peel_long_cycles"): pipeline.peel_long_cycles,
        (pathscycles, "find_long_cycle_dfs"): pathscycles.find_long_cycle_dfs,
        (pipeline, "well_spread_path_cycle_decompose"): pipeline.well_spread_path_cycle_decompose,
        (pipeline, "eulerian_cycle_decompose"): pipeline.eulerian_cycle_decompose,
        (pipeline, "almost_decompose_into_expanders"): pipeline.almost_decompose_into_expanders,
        (decomposer, "certify_expander"): decomposer.certify_expander,
        (pipeline, "split_expander_edges"): pipeline.split_expander_edges,
        (pipeline, "build_skeleton"): pipeline.build_skeleton,
        (connectivity, "route_pairs"): connectivity.route_pairs,
        (pipeline, "decompose_expander"): pipeline.decompose_expander,
    }
    fn = {attr: f for (_, attr), f in orig.items()}

    def peel_long_cycles(g, min_len):
        tr._min_len.append(min_len)
        try:
            cycles, rest = tr.call("pathscycles.peel", fn["peel_long_cycles"], g, min_len)
        finally:
            tr._min_len.pop()
        tr.count("pathscycles.peel_edges_in", g.m)
        tr.count("pathscycles.peel_cycle_edges_out", sum(len(c.edge_ids) for c in cycles))
        return cycles, rest

    def find_long_cycle_dfs(g, **kwargs):
        cyc = tr.call("pathscycles.dfs", fn["find_long_cycle_dfs"], g, **kwargs)
        # the peel keeps a found cycle only when it meets its length floor
        if cyc is not None and len(cyc.edge_ids) >= (tr._min_len[-1] if tr._min_len else 3):
            tr.count("pathscycles.dfs_hits")
        return cyc

    def well_spread_path_cycle_decompose(g, *args, **kwargs):
        res = tr.call("pathscycles.well_spread", fn["well_spread_path_cycle_decompose"],
                      g, *args, **kwargs)
        tr.count("pathscycles.well_spread_paths_out", sum(1 for p in res.paths if p.edge_ids))
        return res

    def eulerian_cycle_decompose(g):
        return tr.call("pathscycles.euler", fn["eulerian_cycle_decompose"], g)

    def almost_decompose_into_expanders(g, *args, **kwargs):
        res = tr.call("decomposer.split", fn["almost_decompose_into_expanders"],
                      g, *args, **kwargs)
        tr.count("decomposer.parts_out", len(res.parts))
        return res

    def certify_expander(g, p, mode="exhaustive", **kwargs):
        verdict = tr.call(f"expansion.certify_{mode}", fn["certify_expander"],
                          g, p, mode, **kwargs)
        if mode == "exhaustive" and verdict.violation is not None:
            tr.count("expansion.exhaustive_violations")
        return verdict

    def split_expander_edges(g, *args, **kwargs):
        return tr.call("decomposer.edge_split", fn["split_expander_edges"], g, *args, **kwargs)

    def build_skeleton(g, V, **kwargs):
        res = tr.call("connectivity.build_skeleton", fn["build_skeleton"], g, V, **kwargs)
        if isinstance(res, connectivity.SkeletonFailure):
            tr.count("connectivity.skeleton_failures")
        return res

    def route_pairs(g, batch, V, ell, *args, **kwargs):
        res = tr.call("connectivity.route", fn["route_pairs"], g, batch, V, ell, *args, **kwargs)
        if isinstance(res, connectivity.RouteFailure):
            tr.count("connectivity.route_failures")
        return res

    def decompose_expander(g, cfg):
        dec = tr.call("pipeline.decompose_expander", fn["decompose_expander"], g, cfg)
        # decompose_general drops these stats, so read them here
        tr.count("connectivity.closed_paths", dec.stats.get("closed_paths", 0))
        tr.count("connectivity.fallback_paths", dec.stats.get("fallback_paths", 0))
        return dec

    wrappers = {
        "peel_long_cycles": peel_long_cycles,
        "find_long_cycle_dfs": find_long_cycle_dfs,
        "well_spread_path_cycle_decompose": well_spread_path_cycle_decompose,
        "eulerian_cycle_decompose": eulerian_cycle_decompose,
        "almost_decompose_into_expanders": almost_decompose_into_expanders,
        "certify_expander": certify_expander,
        "split_expander_edges": split_expander_edges,
        "build_skeleton": build_skeleton,
        "route_pairs": route_pairs,
        "decompose_expander": decompose_expander,
    }
    try:
        for module, attr in orig:
            setattr(module, attr, wrappers[attr])
        yield tr
    finally:
        for (module, attr), f in orig.items():
            setattr(module, attr, f)


def execution_metrics(tr: Tracer) -> list[dict[str, float]]:
    """Per-layer metrics of every execution, from its spans and counters."""
    by_execution: list[list] = [[] for _ in tr.executions]
    for idx, span in enumerate(tr.spans):
        by_execution[span[4]].append((idx, span))
    return [_metrics(spans, counts) for spans, counts in zip(by_execution, tr.counts)]


def _metrics(spans: list, c: Counter) -> dict[str, float]:
    """``spans`` holds (index, span) pairs of one execution in call order."""
    dur: Counter = Counter()
    calls: Counter = Counter()
    child: Counter = Counter()  # span index -> time covered by its children
    busy: Counter = Counter()  # layer -> time in its outermost spans
    layers_above: dict[int, frozenset] = {-1: frozenset()}
    for idx, (name, start, end, parent, _) in spans:
        d = end - start
        dur[name] += d
        calls[name] += 1
        child[parent] += d
        layer = name.split(".", 1)[0]
        above = layers_above[parent]
        if layer not in above:
            busy[layer] += d
        layers_above[idx] = above | {layer}
    self_s: Counter = Counter()
    for idx, (name, start, end, parent, _) in spans:
        self_s[name] += (end - start) - child[idx]
    m = {
        "graph.parse_s": dur["graph.parse"],
        "graph.to_json_s": dur["graph.to_json"],
        "graph.validate_s": dur["graph.validate"],
        "graph.validate_json_s": dur["graph.validate_json"],
        "pipeline.decompose_s": dur["pipeline.decompose"],
        "pipeline.self_s": self_s["pipeline.decompose"] + self_s["pipeline.decompose_expander"],
        "pipeline.expander_parts": calls["pipeline.decompose_expander"],
        "pathscycles.peel_s": dur["pathscycles.peel"],
        "pathscycles.peel_calls": calls["pathscycles.peel"],
        "pathscycles.peel_edges_in": c["pathscycles.peel_edges_in"],
        "pathscycles.peel_cycle_edges_out": c["pathscycles.peel_cycle_edges_out"],
        "pathscycles.dfs_s": dur["pathscycles.dfs"],
        "pathscycles.dfs_calls": calls["pathscycles.dfs"],
        "pathscycles.dfs_hits": c["pathscycles.dfs_hits"],
        "pathscycles.sweep_s": dur["pathscycles.peel"] - dur["pathscycles.dfs"],
        "pathscycles.well_spread_s": dur["pathscycles.well_spread"],
        "pathscycles.well_spread_paths_out": c["pathscycles.well_spread_paths_out"],
        "pathscycles.euler_s": dur["pathscycles.euler"],
        "decomposer.split_s": dur["decomposer.split"],
        "decomposer.self_s": self_s["decomposer.split"],
        "decomposer.parts_out": c["decomposer.parts_out"],
        "decomposer.edge_split_s": dur["decomposer.edge_split"],
        "expansion.certify_heuristic_s": dur["expansion.certify_heuristic"],
        "expansion.certify_heuristic_calls": calls["expansion.certify_heuristic"],
        "expansion.certify_exhaustive_s": dur["expansion.certify_exhaustive"],
        "expansion.certify_exhaustive_calls": calls["expansion.certify_exhaustive"],
        "expansion.exhaustive_violations": c["expansion.exhaustive_violations"],
        "connectivity.build_skeleton_s": dur["connectivity.build_skeleton"],
        "connectivity.build_skeleton_calls": calls["connectivity.build_skeleton"],
        "connectivity.skeleton_failures": c["connectivity.skeleton_failures"],
        "connectivity.route_s": dur["connectivity.route"],
        "connectivity.route_calls": calls["connectivity.route"],
        "connectivity.route_failures": c["connectivity.route_failures"],
        "connectivity.closed_paths": c["connectivity.closed_paths"],
        "connectivity.fallback_paths": c["connectivity.fallback_paths"],
    }
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer]
    return {k: float(v) for k, v in m.items()}


def ratios(m: dict[str, float]) -> dict[str, float]:
    """Yield ratios from summed counts; 0 where the layer saw no attempts."""

    def div(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "pathscycles.peel_yield": div(m["pathscycles.peel_cycle_edges_out"],
                                      m["pathscycles.peel_edges_in"]),
        "expansion.exhaustive_violation_frac": div(m["expansion.exhaustive_violations"],
                                                   m["expansion.certify_exhaustive_calls"]),
        "connectivity.closure_yield": div(m["connectivity.closed_paths"],
                                          m["connectivity.closed_paths"]
                                          + m["connectivity.fallback_paths"]),
    }
