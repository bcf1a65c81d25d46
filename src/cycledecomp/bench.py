"""Instance generators, the bipartite lower-bound family, and the scaling harness.

The harness decomposes every generated instance with the full driver,
validates the output, checks the family-specific piece bounds, and emits one
CSV row per (family, n, seed).  Any violation aborts the run with the
offending instance written to disk for reproduction.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import re
import time
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from .graph import Graph, format_edge_list, validate_decomposition
from .pipeline import PipelineConfig, decompose_logstar

DEFAULT_SIZES = (128, 256, 512, 1024, 2048)
DEFAULT_FAMILIES = ("gnp8n", "gnp05", "gallai1", "gallai2", "gallai5", "eulerian")
DEFAULT_SEEDS = (0, 1, 2, 3, 4)

CSV_COLUMNS = (
    "family",
    "n",
    "m",
    "seed",
    "cycles",
    "singles",
    "pieces",
    "pieces_per_n",
    "gallai_bound",
    "runtime",
)


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph, deterministic under seed."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    empty = Graph.from_edges(n, [])  # rejects a bad n before any pair is drawn
    if p == 0:
        return empty
    rng = random.Random(seed)
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                pairs.append((u, v))
    return Graph.from_edges(n, pairs)


def gen_gallai_bipartite(k: int, n: int) -> Graph:
    """Complete bipartite K_{2k+1, n-2k-1}: the piece-count lower-bound family."""
    if k < 0 or n < 2 * k + 2:
        raise ValueError("need n >= 2k+2")
    a = 2 * k + 1
    pairs = [(i, j) for i in range(a) for j in range(a, n)]
    return Graph.from_edges(n, pairs)


def gallai_lower_bound(k: int, n: int) -> int:
    """Fewest pieces any decomposition of gen_gallai_bipartite(k, n) can have.

    Every cycle alternates sides, so it uses at most 2|A| of the |A||B|
    edges, and every B-vertex has odd degree so it ends a non-cycle piece:
    |B| + (|A||B| - |B|) / (2|A|), rounded up.
    """
    if k < 0 or n < 2 * k + 2:
        raise ValueError("need n >= 2k+2")
    a = Fraction(2 * k + 1)
    b = Fraction(n - 2 * k - 1)
    bound = b + (a * b - b) / (2 * a)
    return math.ceil(bound)


def gen_eulerian(n: int, p: float, seed: int) -> Graph:
    """Random graph with parity repaired: all degrees even, seeded.

    Odd-degree vertices are cancelled in pairs by deleting a shortest path
    between them; interior vertices lose degree 2, so only the two endpoint
    parities flip.  Every component always holds an even number of odd
    vertices, so a partner is always reachable.  The smallest odd vertex is
    paired first, with a larger one, so a pointer to it only moves forward.
    The deletions cut down fresh copies of the graph's sorted neighbour lists.
    """
    nbrs = gen_gnp(n, p, seed).arrays_copy()[0]
    x = 0
    while True:
        while x < n and len(nbrs[x]) % 2 == 0:
            x += 1
        if x == n:
            break
        parent: dict[int, Optional[int]] = {x: None}
        frontier = [x]
        target = -1
        while frontier and target < 0:
            nxt: list[int] = []
            for a in frontier:
                for b in nbrs[a]:
                    if b in parent:
                        continue
                    parent[b] = a
                    if len(nbrs[b]) % 2:
                        target = b
                        break
                    nxt.append(b)
                if target >= 0:
                    break
            frontier = nxt
        if target < 0:
            raise RuntimeError(f"odd vertex {x} has no odd partner in its component")
        cur = target
        while parent[cur] is not None:
            prv = parent[cur]
            del nbrs[cur][bisect_left(nbrs[cur], prv)]
            del nbrs[prv][bisect_left(nbrs[prv], cur)]
            cur = prv
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in nbrs[u] if u < v])


def gen_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph by stub pairing with simplicity rejection."""
    if d < 0 or d >= n:
        raise ValueError("need 0 <= d < n")
    if n * d % 2:
        raise ValueError("n*d must be even")
    rng = random.Random(seed)
    for _ in range(200):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        wedged = False
        while stubs and not wedged:
            # draw stub pairs; reject loops and repeats locally, restart on wedge
            for _ in range(200):
                i = rng.randrange(len(stubs))
                j = rng.randrange(len(stubs))
                if i == j:
                    continue
                u, v = stubs[i], stubs[j]
                if u != v and v not in adj[u]:
                    break
            else:
                wedged = True
                continue
            adj[u].add(v)
            adj[v].add(u)
            for idx in sorted((i, j), reverse=True):
                stubs[idx] = stubs[-1]
                stubs.pop()
        if not wedged:
            return Graph.from_edges(n, [(u, v) for u in adj for v in adj[u] if u < v])
    raise RuntimeError(f"could not realize a simple {d}-regular graph on {n} vertices")


class BenchFailure(Exception):
    """A benchmark instance violated validity or a family bound."""

    def __init__(self, message: str, repro_path: Optional[str] = None):
        super().__init__(message)
        self.repro_path = repro_path


def _gallai_k(family: str) -> Optional[int]:
    """K of a gallaiK family, None for gnp8n, gnp05 and eulerian; ValueError
    for any other name.  K is in ASCII digits with no leading zero, so no
    grid cell runs twice under two names."""
    match = re.fullmatch(r"gallai(0|[1-9][0-9]*)", family)
    if match:
        return int(match[1])
    if family not in ("gnp8n", "gnp05", "eulerian"):
        raise ValueError(f"unknown family {family!r}")
    return None


def _make_instance(family: str, n: int, seed: int) -> tuple[Graph, Optional[int]]:
    k = _gallai_k(family)
    if k is not None:
        return gen_gallai_bipartite(k, n), gallai_lower_bound(k, n)
    gen = gen_eulerian if family == "eulerian" else gen_gnp
    return gen(n, 0.5 if family == "gnp05" else min(1.0, 8 / n), seed), None


def _bench_one(family: str, n: int, seed: int, cfg: PipelineConfig, base: str) -> dict:
    """Decompose one grid cell and return its CSV row; on a violation, save
    the instance in directory base and raise BenchFailure."""
    g, bound = _make_instance(family, n, seed)
    t0 = time.perf_counter()
    dec, _ = decompose_logstar(g, cfg)
    dt = time.perf_counter() - t0
    problems = list(validate_decomposition(g, dec).problems)
    pieces = dec.pieces
    if family in ("gnp8n", "gnp05") and pieces > 32 * n:
        problems.append(f"pieces {pieces} above the 32n ceiling {32 * n}")
    if bound is not None and pieces < bound:
        problems.append(f"pieces {pieces} below the proven floor {bound}")
    if family == "eulerian" and dec.single_edges:
        problems.append(f"{len(dec.single_edges)} single edges on an all-even input")
    if problems:
        path = os.path.join(base, f"bench_failure_{family}_{n}_{seed}.edges")
        with open(path, "w") as fh:
            fh.write(f"# family={family} n={n} seed={seed}\n")
            fh.write(format_edge_list(g))
        raise BenchFailure(f"{family} n={n} seed={seed}: " + "; ".join(problems), repro_path=path)
    return {
        "family": family,
        "n": n,
        "m": g.m,
        "seed": seed,
        "cycles": len(dec.cycles),
        "singles": len(dec.single_edges),
        "pieces": pieces,
        "pieces_per_n": f"{pieces / n:.4f}",
        "gallai_bound": "" if bound is None else bound,
        "runtime": f"{dt:.3f}",
    }


def bench_scaling(
    families: Sequence[str] = DEFAULT_FAMILIES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    cfg: Optional[PipelineConfig] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    *,
    out: Optional[str] = None,
) -> str:
    """Run the scaling grid and return the CSV text (also written to out).

    The cells run one after another in (family, n, seed) order, so a fixed
    grid and seeds reproduce the same table (runtime column aside), and each
    cell's runtime is its own.  out is opened before the first cell, so an
    unwritable path fails before any instance runs.  The first bound or
    validity violation raises BenchFailure with the instance saved beside
    the output file, which is then left empty.  Raises ValueError, before
    any instance runs, for a repeated family, size or seed, an unknown
    family, a size below 1 or a gallaiK family at a size below 2k + 2.
    """
    if cfg is None:
        cfg = PipelineConfig.engineering()
    for what, values in (("family", families), ("size", sizes), ("seed", seeds)):
        repeated = [v for v, k in Counter(values).items() if k > 1]
        if repeated:
            raise ValueError(f"{what} {repeated[0]} given more than once")
    if min(sizes, default=1) < 1:
        raise ValueError(f"sizes must be at least 1, got {min(sizes)}")
    for f in families:
        k = _gallai_k(f)
        if k is not None and min(sizes, default=2 * k + 2) < 2 * k + 2:
            raise ValueError(f"{f} needs n >= {2 * k + 2}, got n={min(sizes)}")
    base = os.path.dirname(out or "") or "."
    with open(out, "w") if out else contextlib.nullcontext() as fh:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for f, n, s in sorted((f, n, s) for f in families for n in sizes for s in seeds):
            writer.writerow(_bench_one(f, n, s, cfg, base))
        text = buf.getvalue()
        if fh is not None:
            fh.write(text)
    return text
