"""Closed-loop benchmark of the cycledecomp pipeline.

One caller decomposes one instance at a time, on the CLI's path: edge-list
text is parsed by ``graph.parse_edge_list``, decomposed by
``pipeline.decompose_logstar`` under ``PipelineConfig.engineering``, written
by ``graph.decomposition_to_json`` and checked by both validators on the
JSON round trip.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0

Set-up imports the package from ``src/`` beside this directory and
generates the workload's edge-list texts from ``--seed``.  The timed phase
then runs passes over the instance set until ``--seconds`` have passed (at
least two passes).  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` passes alternate
between untraced and traced, the line carries the per-layer metrics, and the
spans are written to ``perfbench/out/``.  ``--smoke`` runs tiny instances.
Times are in reference seconds (see ``Probe``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("graph", "expansion", "decomposer", "connectivity", "pathscycles", "pipeline", "bench")
SETUP_REPEATS = 5
# the CLI's default; the workload seed shapes the inputs, never the program
PIPELINE_SEED = 0


def import_package() -> dict:
    """Import the package afresh from SRC, so set-up pays for the import."""
    for name in [m for m in sys.modules if m == "cycledecomp" or m.startswith("cycledecomp.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"cycledecomp.{name}") for name in MODULES}
    if Path(mods["graph"].__file__).resolve().parent != SRC / "cycledecomp":
        raise ImportError(f"cycledecomp was imported from {mods['graph'].__file__}, not {SRC}")
    return mods


class Probe:
    """A fixed reference computation, timed between measurements.

    Shared hosts drift in speed by 15-30% over minutes, which no number of
    repeats inside one run removes.  Each measured time is divided by the
    mean of the reference's times just before and just after it, and
    multiplied by REF_S: times are reported in reference seconds, the time
    on a machine where the reference takes REF_S.  The reference (BFS
    sweeps over a fixed random graph, with the collector paused) shares no
    code with the package, so a change to the package moves reference
    seconds in the same proportion as raw seconds.
    """

    REF_S = 0.01

    def __init__(self):
        rng = random.Random(5)
        adj: dict[int, set[int]] = {v: set() for v in range(600)}
        for _ in range(2400):
            a, b = rng.randrange(600), rng.randrange(600)
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        self.adj = adj
        self.times: list[float] = []
        self.last = self._run()

    def _run(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for root in range(0, 600, 60):
                seen = {root}
                frontier = [root]
                while frontier:
                    nxt = []
                    for u in frontier:
                        for w in sorted(self.adj[u]):
                            if w not in seen:
                                seen.add(w)
                                nxt.append(w)
                    frontier = nxt
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.times.append(dt)
        return dt

    def scale(self) -> float:
        """Reference seconds per second for the time since the previous call."""
        now = self._run()
        factor = self.REF_S / ((self.last + now) / 2)
        self.last = now
        return factor


def direct(name, fn, *args):
    return fn(*args)


def execute(inst: workloads.Instance, mods, call) -> tuple[str, int, int, int]:
    """Run one instance the way the CLI does, through ``call(name, fn, *args)``.

    Returns (decomposition JSON, pieces, edges, density rounds).  Raises
    ValueError when either validator rejects the JSON round trip.
    """
    graph, pipeline = mods["graph"], mods["pipeline"]
    g = call("graph.parse", graph.parse_edge_list, inst.text)
    dec, report = call("pipeline.decompose", pipeline.decompose_logstar, g,
                       pipeline.PipelineConfig.engineering(PIPELINE_SEED))
    text = call("graph.to_json", graph.decomposition_to_json, dec, g)

    def check_json():
        doc = json.loads(text)
        return doc, graph.validate_decomposition_json(doc, g)

    def check_graph(doc):
        return graph.validate_decomposition(g, graph.decomposition_from_json_dict(doc, g))

    doc, rep_json = call("graph.validate_json", check_json)
    rep = call("graph.validate", check_graph, doc)
    problems = list(rep_json.problems) + list(rep.problems)
    if problems or not (rep.ok and rep_json.ok):
        raise ValueError("; ".join(problems[:3]) or "validator rejected the output")
    return text, len(doc["cycles"]) + len(doc["edges"]), g.m, len(report.iterations)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instances, for the benchmark's test")
    args = ap.parse_args(argv)

    if not (SRC / "cycledecomp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cycledecomp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    probe = Probe()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = import_package()
        instances = workloads.build(args.workload, args.seed, args.smoke, mods)
        setups.append((time.perf_counter() - t0) * probe.scale())

    tracer = tracing.Tracer()
    scales: list[float] = []  # per traced execution
    plain: list[list[float]] = [[] for _ in instances]  # untraced seconds per instance
    traced: list[list[float]] = [[] for _ in instances]
    reference: list[str | None] = [None] * len(instances)
    outcome: list[tuple[int, int, int] | None] = [None] * len(instances)
    attempted = failed = 0
    start = time.perf_counter()
    passes = 0
    while passes < 2 or time.perf_counter() - start < args.seconds:
        trace_pass = args.trace == 1 and passes % 2 == 1
        for i, inst in enumerate(instances):
            if passes >= 2 and time.perf_counter() - start >= args.seconds:
                break
            attempted += 1
            t0 = time.perf_counter()
            try:
                if trace_pass:
                    tracer.begin(inst.label, passes)
                    with tracing.patched(tracer, mods):
                        text, pieces, m, rounds = execute(inst, mods, tracer.call)
                else:
                    text, pieces, m, rounds = execute(inst, mods, direct)
            except Exception as exc:  # one bad instance must not stop the run
                failed += 1
                print(f"FAIL {inst.label} pass {passes}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            finally:
                dt = time.perf_counter() - t0
                scale = probe.scale()
                if trace_pass:
                    scales.append(scale)
            dt *= scale
            problem = None
            if reference[i] is None:
                reference[i] = text
                outcome[i] = (pieces, m, rounds)
            elif text != reference[i]:
                problem = "JSON differs from the first run of this instance"
            if pieces < inst.floor:
                problem = f"{pieces} pieces, below the proven floor {inst.floor}"
            if problem:
                failed += 1
                print(f"FAIL {inst.label} pass {passes}: {problem}", file=sys.stderr)
            (traced if trace_pass else plain)[i].append(dt)
        passes += 1

    done = [i for i, o in enumerate(outcome) if o is not None]
    wall = sum(statistics.median(plain[i]) for i in done if plain[i])
    if args.trace == 0:
        pieces = sum(outcome[i][0] for i in done)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "max_instance_s": (max((statistics.median(plain[i]) for i in done), default=0.0),
                               "s"),
            "pieces_per_n": (pieces / max(1, sum(instances[i].n for i in done)), "ratio"),
            "floor_ratio": (pieces / max(1, sum(instances[i].floor for i in done)), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, scales, traced, outcome, wall)
        metrics["trace.probe_s"] = (statistics.median(probe.times), "s")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(tracer.to_json(), fh)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>10} {name:<40} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and len(done) == len(instances),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, scales, traced, outcome, wall) -> dict:
    """Per-pass layer metrics: each instance's median over its traced runs, summed."""
    per_exec = tracing.execution_metrics(tracer)
    by_instance: dict[str, list[dict]] = {}
    for (label, _), m, scale in zip(tracer.executions, per_exec, scales):
        m = {k: v * scale if k.endswith("_s") else v for k, v in m.items()}
        by_instance.setdefault(label, []).append(m)
    totals: dict[str, float] = {}
    for runs in by_instance.values():
        for key in runs[0]:
            totals[key] = totals.get(key, 0.0) + statistics.median(r[key] for r in runs)
    done = [i for i, o in enumerate(outcome) if o is not None]
    totals["graph.edges_in"] = float(sum(outcome[i][1] for i in done))
    totals["pipeline.density_rounds"] = float(sum(outcome[i][2] for i in done))
    totals.update(tracing.ratios(totals))
    traced_wall = sum(statistics.median(traced[i]) for i in done if traced[i])
    totals["trace.wall_s"] = traced_wall
    totals["trace.overhead_s"] = traced_wall - wall
    return {k: (v, unit_of(k)) for k, v in sorted(totals.items())}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", "_frac")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
