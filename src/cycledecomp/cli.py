"""Command line front end.

One binary, ten subcommands: generate instances, certify expansion, split
into expander parts, route pair batches, decompose (whole pipeline or the
single-shot path/cycle stages), validate results, and run the benchmark
grid.  Edge lists come from a file argument or standard input; the primary
artifact goes to standard output unless --out is given.

Exit codes: 0 success, 1 validation or feasibility failure, 2 malformed
input or arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Optional, Sequence

from .bench import (
    DEFAULT_FAMILIES,
    DEFAULT_SEEDS,
    DEFAULT_SIZES,
    BenchFailure,
    bench_scaling,
    gen_eulerian,
    gen_gallai_bipartite,
    gen_gnp,
    gen_regular,
)
from .connectivity import RouteFailure, PairBatch, route_pairs
from .decomposer import SplitFailure, almost_decompose_into_expanders, split_expander_edges
from .expansion import ExpanderParams, certify_expander
from .graph import (
    DECOMPOSITION_SCHEMA_VERSION,
    Decomposition,
    Graph,
    ParseError,
    decomposition_to_json,
    format_edge_list,
    parse_edge_list,
    validate_decomposition,
    validate_decomposition_json,
)
from .pathscycles import (
    eulerian_cycle_decompose,
    find_long_cycle_dfs,
    well_spread_path_cycle_decompose,
)
from .pipeline import PRESETS, PipelineConfig, decompose_logstar


def _read_text(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _read_graph(path: Optional[str]) -> Graph:
    return parse_edge_list(_read_text(path))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out: Optional[str]) -> None:
    _emit(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", out)


def _info(args: argparse.Namespace, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def _params_from_args(args: argparse.Namespace) -> ExpanderParams:
    return ExpanderParams(args.epsilon, args.s, args.denominator, args.denominator_const)


# -- subcommand bodies ---------------------------------------------------------


# the two parameters of each generator family, as ``gen`` takes them
_GEN_PARAMS = {"gnp": "N P", "gallai": "K N", "eulerian": "N P", "regular": "N D"}


def _cmd_gen(args: argparse.Namespace) -> int:
    fam = args.family
    vals = args.params
    try:
        if len(vals) != 2:
            raise ValueError(f"{fam} takes exactly two parameters, {_GEN_PARAMS[fam]}")
        if fam == "gnp":
            g = gen_gnp(int(vals[0]), float(vals[1]), args.seed)
        elif fam == "gallai":
            g = gen_gallai_bipartite(int(vals[0]), int(vals[1]))
        elif fam == "eulerian":
            g = gen_eulerian(int(vals[0]), float(vals[1]), args.seed)
        else:
            g = gen_regular(int(vals[0]), int(vals[1]), args.seed)
    except ValueError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return 2
    _emit(format_edge_list(g), args.out)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    cfg = PipelineConfig(args.preset, args.seed)
    # opened first, so an unwritable report path fails before any output
    with open(args.report, "w") if args.report else contextlib.nullcontext() as fh:
        dec, report = decompose_logstar(g, cfg)
        rep = validate_decomposition(g, dec)
        _emit(decomposition_to_json(dec, g) + "\n", args.out)
        if fh is not None:
            doc = {
                "iterations": list(report.iterations),
                "n_cycles": len(dec.cycles),
                "n_single_edges": len(dec.single_edges),
                "pieces": dec.pieces,
                "degree_trajectory": report.degree_trajectory(),
            }
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if not rep.ok:
        print("decomposition failed self-validation: " + "; ".join(rep.problems), file=sys.stderr)
        return 1
    _info(args, f"{len(dec.cycles)} cycles, {len(dec.single_edges)} single edges")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(_read_text(args.file))
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    g = _read_graph(args.graph) if args.graph else None
    rep = validate_decomposition_json(doc, g)
    _emit_json(
        {
            "ok": rep.ok,
            "problems": list(rep.problems),
            "n_cycles": rep.n_cycles,
            "n_single_edges": rep.n_single_edges,
            "covered_edges": rep.covered_edges,
        },
        args.out,
    )
    return 0 if rep.ok else 1


def _cmd_certify(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    verdict = certify_expander(
        g,
        _params_from_args(args),
        mode=args.mode,
        cap=args.cap,
        seed=args.seed,
    )
    doc = {
        "is_expander": verdict.is_expander,
        "certified": verdict.certified,
        "mode": verdict.mode,
        "subsets_checked": verdict.subsets_checked,
        "witness": None,
    }
    if verdict.violation is not None:
        U, F = verdict.violation
        tab = g.edge_table
        doc["witness"] = {
            "U": sorted(U),
            "F": sorted([list(tab[eid]) for eid in F]),
            "reverified": verdict.reverify(g),
        }
    # the exact count can pass Python's int-to-text digit limit (absent before
    # 3.10.7); lift it for this write only, so input parsing keeps it
    limit = getattr(sys, "get_int_max_str_digits", int)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        _emit_json(doc, args.out)
    finally:
        set_limit(limit)
    return 0


def _cmd_expanders(args: argparse.Namespace) -> int:
    if args.check is not None and not args.split:
        print("expanders: --check applies only with --split", file=sys.stderr)
        return 2
    g = _read_graph(args.file)
    p = _params_from_args(args)
    tab = g.edge_table
    if args.split:
        try:
            res = split_expander_edges(
                g, p, args.split, args.seed, check=args.check or "none", cap=args.cap
            )
        except SplitFailure as exc:
            print(f"expanders: split failed: {exc}", file=sys.stderr)
            return 1
        doc = {
            "classes": [
                {"m": part.m, "edges": sorted([list(tab[e]) for e in part.edge_ids])}
                for part in res.parts
            ],
            "attempts": res.attempts,
            "checked": [v.is_expander if v is not None else None for v in res.verdicts],
        }
        _emit_json(doc, args.out)
        return 0
    res = almost_decompose_into_expanders(g, p, cap=args.cap, seed=args.seed)
    doc = {
        "parts": [
            {
                "n": part.n,
                "m": part.m,
                "vertices": part.vertex_list(),
                "edges": sorted([list(tab[e]) for e in part.edge_ids]),
                "certified": cert,
            }
            for part, cert in zip(res.parts, res.certified)
        ],
        "removed": sorted([list(tab[e]) for e in res.removed]),
        "removed_count": len(res.removed),
        "part_sizes": res.part_sizes(),
        "max_depth": res.max_depth,
    }
    _emit_json(doc, args.out)
    return 0


def _parse_pair_file(text: str) -> list[tuple[int, int]]:
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two integers, got {raw!r}", line_no)
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"expected two integers, got {raw!r}", line_no) from None
    return pairs


def _cmd_route(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    pairs = _parse_pair_file(_read_text(args.pairs))
    through = [int(tok) for tok in _read_text(args.through).split()]
    batch = PairBatch.from_pairs(pairs)
    routed = route_pairs(
        g,
        batch,
        frozenset(through),
        args.ell,
        strategy=args.strategy,
        rng_seed=args.seed,
    )
    if isinstance(routed, RouteFailure):
        _emit_json(
            {
                "routed": False,
                "stuck": [list(pr) for pr in routed.stuck],
                "attempts": routed.attempts,
                "reason": routed.reason,
            },
            args.out,
        )
        return 1
    _emit_json(
        {
            "routed": True,
            "ell": routed.ell,
            "paths": [list(p.vertices) for p in routed.paths],
        },
        args.out,
    )
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    res = well_spread_path_cycle_decompose(g, mode=args.mode)
    doc = {
        "schema": DECOMPOSITION_SCHEMA_VERSION,
        "n": g.host_n,
        "m": g.m,
        "cycles": [list(c.vertices) for c in res.cycles],
        "paths": [list(p.vertices) for p in res.paths if p.edge_ids],
        "edges": [],
        "endpoint_multiplicity_max": max(res.endpoint_multiplicity().values(), default=0),
    }
    _emit_json(doc, args.out)
    return 0


def _cmd_longcycle(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    cyc = find_long_cycle_dfs(g)
    if cyc is None:
        _emit_json({"found": False, "cycle": None, "length": 0}, args.out)
        return 1
    length = len(cyc.edge_ids)
    _emit_json({"found": True, "cycle": list(cyc.vertices), "length": length}, args.out)
    if args.min_len and length < args.min_len:
        print(f"cycle length {length} below requested {args.min_len}", file=sys.stderr)
        return 1
    return 0


def _cmd_euler(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    odd = sorted(v for v, d in g.degrees().items() if d % 2)
    if odd:
        print(f"euler: {len(odd)} odd-degree vertices (first: {odd[:8]})", file=sys.stderr)
        return 1
    cycles = eulerian_cycle_decompose(g)
    dec = Decomposition.from_parts(g, cycles, [])
    _emit(decomposition_to_json(dec, g) + "\n", args.out)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        text = bench_scaling(
            families=args.families,
            sizes=args.sizes,
            cfg=PipelineConfig(args.preset),
            seeds=args.seeds,
            out=args.out,
        )
    except BenchFailure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        if exc.repro_path:
            print(f"bench: instance saved to {exc.repro_path}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(text)
    else:
        _info(args, f"wrote {args.out}")
    return 0


# -- parser --------------------------------------------------------------------


def _int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok]


def _str_list(raw: str) -> list[str]:
    return [tok for tok in raw.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", help="write the primary output here instead of stdout")

    # --quiet hides progress notes, never a failure; only decompose and bench print any
    quiet_args = argparse.ArgumentParser(add_help=False)
    quiet_args.add_argument("--quiet", action="store_true", help="suppress progress notes")

    # the commands that read a graph: the shared options plus its file
    graph_args = argparse.ArgumentParser(add_help=False, parents=[shared])
    graph_args.add_argument("file", nargs="?", help="edge-list file (default stdin)")

    seed_args = argparse.ArgumentParser(add_help=False)
    seed_args.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    preset_args = argparse.ArgumentParser(add_help=False)
    preset_args.add_argument(
        "--preset", choices=PRESETS, default="engineering",
        help="pipeline preset (default engineering)",
    )

    expander_args = argparse.ArgumentParser(add_help=False)
    expander_args.add_argument("--epsilon", type=float, required=True)
    expander_args.add_argument("--s", type=float, required=True)
    expander_args.add_argument("--denominator", choices=("log2sq", "const"), default="log2sq")
    expander_args.add_argument("--denominator-const", type=float, default=1.0)

    ap = argparse.ArgumentParser(
        prog="cycledecomp",
        description="decompose undirected graphs into edge-disjoint cycles plus single edges",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen", parents=[shared, seed_args], help="generate an instance as an edge list"
    )
    p.add_argument("family", choices=tuple(_GEN_PARAMS))
    p.add_argument(
        "params", nargs="+", help="; ".join(f"{f}: {ps}" for f, ps in _GEN_PARAMS.items())
    )
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "decompose", parents=[quiet_args, graph_args, seed_args, preset_args],
        help="run the full pipeline",
    )
    p.add_argument("--report", help="write the per-iteration run report JSON here")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("validate", parents=[shared], help="check a decomposition JSON document")
    p.add_argument("file", nargs="?", help="decomposition JSON (default stdin)")
    p.add_argument("--graph", help="edge-list file to cross-check the exact edge set")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "certify", parents=[graph_args, seed_args, expander_args],
        help="test the expansion property",
    )
    p.add_argument("--mode", choices=("exhaustive", "heuristic"), default="exhaustive")
    p.add_argument("--cap", type=int, default=20, help="exhaustive-mode vertex cap")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser(
        "expanders", parents=[graph_args, seed_args, expander_args],
        help="split into expander parts (or edge classes with --split)",
    )
    p.add_argument("--split", type=int, default=0, help="split edges into k classes instead")
    p.add_argument(
        "--check", choices=("none", "heuristic", "exhaustive"),
        help="how --split verifies its classes (default none)",
    )
    p.add_argument("--cap", type=int, default=20, help="exhaustive certification cap")
    p.set_defaults(func=_cmd_expanders)

    p = sub.add_parser(
        "route", parents=[graph_args, seed_args], help="route a pair batch through a vertex set"
    )
    p.add_argument("--pairs", required=True, help="file of 'u v' lines")
    p.add_argument("--through", required=True, help="file of through-vertex ids")
    p.add_argument("--ell", type=int, required=True, help="per-path length cap")
    p.add_argument("--strategy", choices=("greedy", "matching_oracle"), default="greedy")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("paths", parents=[graph_args], help="well-spread path/cycle decomposition")
    p.add_argument("--mode", choices=("euler", "paths_only"), default="euler")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("longcycle", parents=[graph_args], help="find one long cycle")
    p.add_argument("--min-len", type=int, default=0, help="fail unless at least this long")
    p.set_defaults(func=_cmd_longcycle)

    p = sub.add_parser(
        "euler", parents=[graph_args], help="cycle decomposition of an all-even graph"
    )
    p.set_defaults(func=_cmd_euler)

    # no abbreviations: --seed would otherwise be taken for --seeds
    p = sub.add_parser(
        "bench", parents=[quiet_args, shared, preset_args], help="run the scaling benchmark grid",
        allow_abbrev=False,
    )
    p.add_argument("--families", type=_str_list, default=list(DEFAULT_FAMILIES))
    p.add_argument("--sizes", type=_int_list, default=list(DEFAULT_SIZES))
    p.add_argument("--seeds", type=_int_list, default=list(DEFAULT_SEEDS))
    p.set_defaults(func=_cmd_bench)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing input, or an output path that is a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
