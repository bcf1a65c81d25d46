"""Acceptance suite: ten numbered end-to-end criteria for the engine.

Each test prints a single [PASS]/[FAIL] line (visible under ``pytest -s``),
so the suite doubles as a report.  The default benchmark grid is run once,
module-scoped, and shared by the criteria that consume it; the brute-force
checks here are written straight from definitions and deliberately avoid the
library's own shortcuts.  Tolerances are pinned inline next to each check.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
import time

import pytest

from cycledecomp.bench import (
    bench_scaling,
    gallai_lower_bound,
    gen_eulerian,
    gen_gallai_bipartite,
    gen_gnp,
    gen_regular,
)
from cycledecomp.expansion import (
    ExpanderParams,
    certify_expander,
    check_dichotomy,
    extract_well_expanding_core,
    worst_case_frontier,
)
from cycledecomp.graph import (
    decomposition_to_json,
    format_edge_list,
    neighborhood,
    parse_edge_list,
    validate_decomposition,
)
from cycledecomp.pathscycles import find_long_cycle_dfs, well_spread_path_cycle_decompose
from cycledecomp.pipeline import PipelineConfig, decompose_logstar, log_star

from helpers import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected,
    random_gnp,
    reference_adjacency,
    star_graph,
)

GRID_ROWS = 150  # 6 families x 5 sizes x 5 seeds


def _verdict(num: int, problems: list[str], detail: str) -> None:
    ok = not problems
    tail = "" if ok else f" -- first problem: {problems[0]} ({len(problems)} total)"
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}{tail}")
    assert ok, f"criterion {num}: {problems[:5]}"


@pytest.fixture(scope="module")
def grid():
    """One full default-grid benchmark run, shared across criteria."""
    t0 = time.perf_counter()
    text = bench_scaling()
    elapsed = time.perf_counter() - t0
    return list(csv.DictReader(io.StringIO(text))), elapsed


# -- criterion 1: every grid decomposition is a valid exact partition ------------


def test_criterion_01_grid_validity(grid):
    rows, elapsed = grid
    problems = []
    if len(rows) != GRID_ROWS:
        problems.append(f"expected {GRID_ROWS} grid rows, got {len(rows)}")
    if elapsed >= 600:
        problems.append(f"grid took {elapsed:.0f}s, budget is 600s")
    # the harness validates every decomposition before a row reaches the CSV;
    # re-validate a stratified sample here so the criterion does not lean on
    # the harness alone
    cfg = PipelineConfig.engineering()._replace(rng_seed=0)
    sample = [
        ("gnp8n", gen_gnp(256, 8 / 256, 0)),
        ("gnp05", gen_gnp(256, 0.5, 0)),
        ("gallai1", gen_gallai_bipartite(1, 256)),
        ("gallai2", gen_gallai_bipartite(2, 256)),
        ("gallai5", gen_gallai_bipartite(5, 256)),
        ("eulerian", gen_eulerian(256, 8 / 256, 0)),
    ]
    for fam, g in sample:
        dec, _ = decompose_logstar(g, cfg)
        rep = validate_decomposition(g, dec)
        if not rep.ok:
            problems.append(f"{fam} sample failed validation: {rep.problems[:2]}")
    _verdict(
        1,
        problems,
        f"{len(rows)}/{GRID_ROWS} grid instances decomposed and validated, "
        f"plus 6 re-validated samples, in {elapsed:.0f}s (< 600s)",
    )


# -- criterion 2: greedy frontier equals raw edge-deletion minimization ----------


def _min_survivors_enumerated(g, Uset, pool, max_budget):
    """min |N(U)| after deleting any <= k pool edges, for every k = 0..max_budget.

    Pure enumeration over edge subsets; each outside neighbor carries a bitmask
    of its edges into U and dies exactly when its mask is covered by F.
    """
    adj = reference_adjacency(g)
    bit = {eid: 1 << i for i, eid in enumerate(sorted(pool))}
    masks: dict[int, int] = {}
    for u in Uset:
        for w, eid in adj[u]:
            if w not in Uset:
                masks[w] = masks.get(w, 0) | bit[eid]
    mlist = list(masks.values())
    base = len(mlist)
    best = [base] * (max_budget + 1)
    for k in range(1, max_budget + 1):
        floor_k = best[k - 1]
        for combo in itertools.combinations(bit.values(), k):
            f = 0
            for b in combo:
                f |= b
            dead = sum(1 for mw in mlist if mw & ~f == 0)
            if base - dead < floor_k:
                floor_k = base - dead
        best[k] = floor_k
    return best


def test_criterion_02_frontier_matches_bruteforce():
    rng = random.Random(202)
    problems = []
    queries = 0
    for gi in range(500):
        n = rng.randint(3, 7)
        g = random_connected(rng, n, extra_p=rng.choice((0.2, 0.4, 0.7)))
        verts = g.vertex_list()
        adj = reference_adjacency(g)
        if n <= 5:
            # small enough to enumerate F over the entire edge set: the raw
            # definitional adversary, no restriction at all
            us = [
                set(c)
                for size in range(1, n + 1)
                for c in itertools.combinations(verts, size)
            ]
            pool_of = lambda u: set(g.edge_ids)
        else:
            us = [set(rng.sample(verts, rng.randint(1, n))) for _ in range(25)]
            # an edge with no endpoint in U appears in no u-w adjacency test,
            # so deleting it can never change N(U); restrict the pool to the
            # edges the definition actually reads
            pool_of = lambda u: {
                eid for v in u for w, eid in adj[v] if w not in u
            }
        for U in us:
            best = _min_survivors_enumerated(g, U, pool_of(U), 4)
            for b in range(5):
                F, surv = worst_case_frontier(g, U, b)
                queries += 1
                if len(F) > b:
                    problems.append(f"graph {gi}: |F|={len(F)} over budget {b}")
                elif len(surv) != best[b]:
                    problems.append(
                        f"graph {gi} U={sorted(U)} b={b}: greedy {len(surv)}, brute {best[b]}"
                    )
                elif len(neighborhood(g, U, F)) != best[b]:
                    problems.append(f"graph {gi}: returned F does not achieve the minimum")
                if len(problems) >= 5:
                    break
            if len(problems) >= 5:
                break
        if len(problems) >= 5:
            break
    _verdict(
        2,
        problems,
        f"{queries} (graph, U, budget) queries on 500 connected graphs (n <= 7, "
        f"budgets <= 4) match exhaustive edge-deletion minimization",
    )


# -- criterion 3: exhaustive certifier agrees with a knapsack reference ----------


def _ref_certify_knapsack(g, p):
    """Double-loop reference certifier.

    For every U up to 2n/3 the adversary's problem is a 0/1 knapsack: each
    outside neighbor is an item of value 1 and cost = its edge count into U.
    Solving it by DP shares no reasoning with the library's sorted-greedy
    shortcut, so agreement is evidence rather than tautology.
    """
    adj = reference_adjacency(g)
    verts = g.vertex_list()
    n = g.n
    for size in range(1, 2 * n // 3 + 1):
        budget = p.budget(size)
        thresh = p.threshold(size, n)
        for U in itertools.combinations(verts, size):
            uset = set(U)
            costs: dict[int, int] = {}
            for u in U:
                for w, _ in adj[u]:
                    if w not in uset:
                        costs[w] = costs.get(w, 0) + 1
            dp = [0] * (budget + 1)
            for c in costs.values():
                for j in range(budget, c - 1, -1):
                    if dp[j - c] + 1 > dp[j]:
                        dp[j] = dp[j - c] + 1
            if len(costs) - dp[budget] < thresh:
                return False
    return True


def test_criterion_03_certifier_soundness():
    rng = random.Random(303)
    params_small = [
        ExpanderParams(2**-5, 0.0),
        ExpanderParams(0.5, 1.0),
        ExpanderParams(1.0, 1.0, "const", 4.0),
        ExpanderParams(0.25, 2.0),
    ]
    params_big = [ExpanderParams(2**-5, 0.0), ExpanderParams(0.5, 0.5)]
    cases = []
    for i in range(170):
        g = random_gnp(rng, rng.randint(4, 9), rng.uniform(0.25, 0.9))
        cases.append((g, params_small[i % 4]))
    for i in range(30):
        g = random_gnp(rng, rng.randint(10, 14), rng.uniform(0.2, 0.5))
        cases.append((g, params_big[i % 2]))
    problems = []
    positives = 0
    for gi, (g, p) in enumerate(cases):
        v = certify_expander(g, p, mode="exhaustive")
        ref = _ref_certify_knapsack(g, p)
        if v.is_expander != ref:
            problems.append(f"case {gi}: certifier {v.is_expander}, reference {ref}")
            continue
        if not v.certified or v.mode != "exhaustive":
            problems.append(f"case {gi}: exhaustive verdict not marked certified")
        if v.is_expander:
            positives += 1
            if v.violation is not None:
                problems.append(f"case {gi}: positive verdict carries a violation")
        else:
            if v.violation is None:
                problems.append(f"case {gi}: negative exhaustive verdict lacks a witness")
                continue
            U, F = v.violation
            if len(F) > p.s * len(U) or not (1 <= len(U) <= 2 * g.n // 3):
                problems.append(f"case {gi}: witness outside the adversary's rules")
            if len(neighborhood(g, U, F)) >= p.threshold(len(U), g.n):
                problems.append(f"case {gi}: witness does not violate the threshold")
            if not v.reverify(g):
                problems.append(f"case {gi}: witness fails reverify")
        if len(problems) >= 5:
            break
    _verdict(
        3,
        problems,
        f"200/200 exhaustive verdicts (n <= 14) agree with the knapsack reference; "
        f"{positives} positives; every negative witness re-verifies",
    )


# -- criterion 4: dichotomy and core guarantees on certified expanders -----------


def test_criterion_04_dichotomy_and_core():
    p = ExpanderParams(2**-5, 2.0)
    hosts = [complete_graph(8), complete_graph(10), complete_graph(12)]
    problems = []
    for g in hosts:
        v = certify_expander(g, p, mode="exhaustive")
        if not (v.is_expander and v.certified):
            problems.append(f"host n={g.n} failed exhaustive certification")
    rng = random.Random(404)
    cases = {"WellExpanding": 0, "RobustNeighborhood": 0}
    samples = 0
    while samples < 10_000 and not problems:
        g = hosts[samples % 3]
        size = rng.randint(1, 2 * g.n // 3)
        U = rng.sample(g.vertex_list(), size)
        fmax = min(math.floor(p.s * size / 2), g.m)
        F = rng.sample(g.edge_id_list(), rng.randint(0, fmax))
        d = rng.randint(1, int(p.s))
        try:
            out = check_dichotomy(g, p, U, F, d)
        except Exception as exc:  # a TheoremViolation here is the fault we hunt
            problems.append(f"sample {samples}: {type(exc).__name__}: {exc}")
            break
        cases[out.case] += 1
        if samples % 50 == 0:
            # re-check the returned case from the raw definitions
            nf = neighborhood(g, U, F)
            if out.case == "WellExpanding":
                if len(nf) < p.s * size / (2 * d):
                    problems.append(f"sample {samples}: case-a count below its own bar")
            else:
                if len(out.robust_set) < p.epsilon * size / p.denominator_value(g.n):
                    problems.append(f"sample {samples}: case-b set below its own bar")
                adj = reference_adjacency(g)
                fset = set(F)
                uset = set(U)
                for w in out.robust_set:
                    deg_u = sum(
                        1 for x, eid in adj[w] if x in uset and eid not in fset
                    )
                    if deg_u < d:
                        problems.append(f"sample {samples}: robust vertex {w} sees only {deg_u} < {d}")
                        break
        samples += 1

    core_checks = 0
    for g in hosts:
        if problems:
            break
        den = p.denominator_value(g.n)
        for _ in range(100):
            size = rng.randint(1, 2 * g.n // 3)
            U = set(rng.sample(g.vertex_list(), size))
            for tau in (1.0, 2.0):
                core = extract_well_expanding_core(g, U, tau)
                if not core <= U:
                    problems.append("core not contained in U")
                if core and len(neighborhood(g, core, ())) < tau * len(core):
                    problems.append(f"core of size {len(core)} under-expands at tau={tau}")
                # certified host: nonempty core of size >= eps|U|/(3 tau den)
                if len(core) < p.epsilon * size / (3 * tau * den) or not core:
                    problems.append(f"core size {len(core)} below guarantee for |U|={size}")
                core_checks += 1
            if problems:
                break
    # the tau-expansion property itself must hold on arbitrary graphs
    for _ in range(200):
        if problems:
            break
        g = random_gnp(rng, rng.randint(2, 16), rng.uniform(0.1, 0.7))
        U = set(rng.sample(g.vertex_list(), rng.randint(1, g.n)))
        tau = rng.choice((0.5, 1.0, 2.0, 3.0))
        core = extract_well_expanding_core(g, U, tau)
        if core and len(neighborhood(g, core, ())) < tau * len(core):
            problems.append(f"random-graph core under-expands at tau={tau}")
        core_checks += 1
    _verdict(
        4,
        problems,
        f"{samples} dichotomy samples on certified expanders with zero faults "
        f"(case split {cases}); {core_checks} core extractions honor their bounds",
    )


# -- criterion 5: well-spread decomposition endpoint contract --------------------


def test_criterion_05_endpoint_spread():
    rng = random.Random(505)
    problems = []
    graphs = [
        path_graph(9),
        star_graph(6),
        cycle_graph(12),
        complete_graph(6),
        complete_bipartite(3, 5),
    ]
    graphs += [
        random_gnp(rng, rng.randint(2, 40), rng.uniform(0.05, 0.6)) for _ in range(495)
    ]
    for gi, g in enumerate(graphs):
        ws = well_spread_path_cycle_decompose(g, mode="euler")
        odd = sum(1 for d in g.degrees().values() if d % 2)
        mult = ws.endpoint_multiplicity()
        if len(ws.paths) != odd // 2:
            problems.append(f"graph {gi}: {len(ws.paths)} paths for {odd} odd vertices")
        if mult and max(mult.values()) > 2:
            problems.append(f"graph {gi}: endpoint multiplicity {max(mult.values())}")
        used = sorted(
            [eid for p in ws.paths for eid in p.edge_ids]
            + [eid for c in ws.cycles for eid in c.edge_ids]
        )
        if used != sorted(g.edge_ids):
            problems.append(f"graph {gi}: edge partition mismatch")
        try:
            for p in ws.paths:
                p.check(g)
            for c in ws.cycles:
                c.check(g)
        except ValueError as exc:
            problems.append(f"graph {gi}: {exc}")
        if len(problems) >= 5:
            break
    _verdict(
        5,
        problems,
        "500/500 graphs: endpoint multiplicity <= 2, #paths = #odd/2, exact "
        "edge partition into paths and cycles",
    )


# -- criterion 6: long cycles on certified expanders ------------------------------


def test_criterion_06_long_cycles():
    rng = random.Random(606)
    p = ExpanderParams(2**-5, 0.0)
    problems = []
    pool = []
    while len(pool) < 30:
        g = random_connected(rng, rng.randint(8, 12), extra_p=0.25)
        if g.m <= g.n:  # keep spare edges so a cycle must exist
            continue
        v = certify_expander(g, p, mode="exhaustive")
        if v.is_expander and v.certified:
            pool.append(g)
    regulars = 0
    for n in (200, 400, 600, 800, 1000):
        for seed in range(5):
            g = gen_regular(n, 8, seed=seed)
            if len(g.components()) != 1:
                continue
            v = certify_expander(g, p, mode="heuristic", seed=seed)
            if v.is_expander:
                pool.append(g)
                regulars += 1
    if len(pool) < 50:
        problems.append(f"only {len(pool)} certified instances, need >= 50")
    found = valid = bound_ok = 0
    shortest = None
    for g in pool:
        c = find_long_cycle_dfs(g)
        if c is None:
            problems.append(f"no cycle found on n={g.n} m={g.m}")
            continue
        found += 1
        L = len(c.vertices)
        ok = (
            L >= 3
            and len(set(c.vertices)) == L
            and all(
                tuple(sorted((c.vertices[i], c.vertices[(i + 1) % L]))) in g._edge_index()
                for i in range(L)
            )
        )
        if ok:
            valid += 1
        else:
            problems.append(f"invalid cycle on n={g.n}")
        if L >= g.n / (64 * math.log2(g.n) ** 4):
            bound_ok += 1
        shortest = L if shortest is None else min(shortest, L)
    if bound_ok < math.ceil(0.95 * len(pool)):
        problems.append(f"length bound met on {bound_ok}/{len(pool)} < 95%")
    if valid != len(pool):
        problems.append(f"valid cycles on {valid}/{len(pool)} instances")
    _verdict(
        6,
        problems,
        f"{len(pool)} certified expanders ({regulars} 8-regular, n up to 1000): "
        f"valid cycles {valid}/{len(pool)}, length >= n/(64 log^4 n) on "
        f"{bound_ok}/{len(pool)}, shortest {shortest}",
    )


# -- criterion 7: Gallai family pieces vs the lower bound -------------------------


def test_criterion_07_gallai_bound(grid):
    rows, _ = grid
    problems = []
    ratio_lines = []
    for fam, k in (("gallai1", 1), ("gallai2", 2), ("gallai5", 5)):
        sub = [r for r in rows if r["family"] == fam]
        if len(sub) != 25:
            problems.append(f"{fam}: expected 25 rows, got {len(sub)}")
            continue
        ratios = []
        for r in sub:
            n, pieces, bound = int(r["n"]), int(r["pieces"]), int(r["gallai_bound"])
            if bound != gallai_lower_bound(k, n):
                problems.append(f"{fam} n={n}: CSV bound {bound} disagrees with recompute")
            if pieces < bound:
                problems.append(f"{fam} n={n}: pieces {pieces} below lower bound {bound}")
            if pieces > 2 * bound:
                problems.append(f"{fam} n={n}: pieces {pieces} above 2x bound {bound}")
            ratios.append(pieces / bound)
        ratio_lines.append(f"k={k}: {min(ratios):.3f}..{max(ratios):.3f}")
    _verdict(
        7,
        problems,
        "75/75 decompositions meet the lower bound and stay within 2x; "
        "pieces/bound " + "; ".join(ratio_lines),
    )


# -- criterion 8: Eulerian inputs close completely ---------------------------------


def test_criterion_08_eulerian_closure(grid):
    rows, _ = grid
    problems = []
    sub = [r for r in rows if r["family"] == "eulerian"]
    if len(sub) != 25:
        problems.append(f"expected 25 eulerian rows, got {len(sub)}")
    for r in sub:
        if int(r["singles"]) != 0:
            problems.append(f"n={r['n']} seed={r['seed']}: {r['singles']} single edges")
    for n, seed in ((64, 7), (128, 8), (256, 9)):
        g = gen_eulerian(n, 8 / n, seed)
        dec, _ = decompose_logstar(g, PipelineConfig.engineering()._replace(rng_seed=seed))
        rep = validate_decomposition(g, dec)
        if not rep.ok:
            problems.append(f"fresh n={n}: invalid decomposition")
        if dec.single_edges:
            problems.append(f"fresh n={n}: {len(dec.single_edges)} single edges")
    _verdict(
        8,
        problems,
        f"{len(sub)} grid + 3 fresh all-even instances decomposed into cycles only",
    )


# -- criterion 9: scaling ceiling and trend on both G(n,p) families ---------------


def test_criterion_09_scaling(grid):
    rows, elapsed = grid
    problems = []
    trend = []
    for fam in ("gnp8n", "gnp05"):
        sub = [r for r in rows if r["family"] == fam]
        if len(sub) != 25:
            problems.append(f"{fam}: expected 25 rows, got {len(sub)}")
            continue
        for r in sub:
            if int(r["pieces"]) > 32 * int(r["n"]):
                problems.append(
                    f"{fam} n={r['n']} seed={r['seed']}: pieces {r['pieces']} over 32n"
                )
        for n in (128, 256, 512, 1024, 2048):
            vals = [float(r["pieces_per_n"]) for r in sub if int(r["n"]) == n]
            trend.append(f"{fam}@{n}:{sum(vals) / len(vals):.2f}")
    if elapsed >= 900:
        problems.append(f"bench took {elapsed:.0f}s, budget is 900s")
    _verdict(
        9,
        problems,
        f"pieces <= 32n on all 50 runs in {elapsed:.0f}s (< 900s); mean pieces/n "
        + " ".join(trend)
        + f"; log*(2048)={log_star(2048)} <= 5",
    )


# -- criterion 10: byte-identical output for identical (input, preset, seed) ------


def test_criterion_10_determinism():
    problems = []
    specs = [
        ("engineering", gen_gnp(128, 8 / 128, 3), 3),
        ("engineering", gen_gnp(96, 0.3, 1), 11),
        ("paper", gen_gnp(64, 0.2, 5), 5),
    ]
    for preset, g, seed in specs:
        text = format_edge_list(g)
        outs = []
        for _ in range(2):
            h = parse_edge_list(text)  # fresh graph object per run
            if preset == "paper":
                cfg = PipelineConfig.paper(seed)
            else:
                cfg = PipelineConfig.engineering()._replace(rng_seed=seed)
            dec, _ = decompose_logstar(h, cfg)
            outs.append(decomposition_to_json(dec, h).encode())
        if outs[0] != outs[1]:
            problems.append(f"{preset} preset, n={g.n}: runs differ")
    _verdict(
        10,
        problems,
        "byte-identical decomposition JSON across repeated runs "
        "(engineering and paper presets, fresh graph objects each run)",
    )
