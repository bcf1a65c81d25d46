"""Shared graph builders and brute-force oracles used across the test suite."""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import sys
import time
from collections import Counter, deque
from typing import Iterable, Optional, Union

from cycledecomp.connectivity import (
    ORACLE_CANDIDATE_CAP,
    ORACLE_ELL_CAP,
    ORACLE_VERTEX_CAP,
    PairBatch,
    RouteFailure,
    RoutedPaths,
    _enumerate_through_paths,
)
from cycledecomp.decomposer import (
    AlmostDecomposeResult,
    _assert_almost_decompose_guarantees,
    almost_decompose_into_expanders,
)
from cycledecomp.expansion import (
    CapacityError,
    ExpanderParams,
    TheoremViolation,
    certify_expander,
)
from cycledecomp.graph import (
    MAX_VERTICES,
    Cycle,
    Decomposition,
    Graph,
    ParseError,
    Path,
    ValidationReport,
    neighborhood,
)
from cycledecomp.pathscycles import peel_long_cycles
from cycledecomp.pipeline import PART_COUNTERS, PipelineConfig, decompose_expander


def path_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Graph:
    return Graph.from_edges(k, list(itertools.combinations(range(k), 2)))


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_gnp(rng: random.Random, n: int, p: float) -> Graph:
    pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, pairs)


def random_connected(rng: random.Random, n: int, extra_p: float = 0.3) -> Graph:
    """Random tree plus extra random edges; always connected."""
    pairs = set()
    for v in range(1, n):
        pairs.add((rng.randrange(v), v))
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < extra_p:
            pairs.add((u, v))
    return Graph.from_edges(n, sorted(pairs))


def scattered_subview(rng: random.Random) -> Graph:
    """A few G(k, p) communities on interleaved vertex ids plus isolated
    vertices, restricted to a random vertex subset and a random edge subset,
    so the view has gaps in its vertex and edge ids.  Every other host is
    twenty times larger than the vertices it uses, as when a small part of
    a large graph is peeled."""
    n = rng.randint(4, 60)
    host_n = n * rng.choice((1, 20))
    ids = rng.sample(range(host_n), n)
    pairs: set[tuple[int, int]] = set()
    start = 0
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(2, max(2, n // 3))
        block = ids[start : start + k]
        start += k
        p = rng.uniform(0.2, 1.0)
        for a in range(len(block)):
            for b in range(a + 1, len(block)):
                if rng.random() < p:
                    u, v = block[a], block[b]
                    pairs.add((u, v) if u < v else (v, u))
    host = Graph.from_edges(host_n, sorted(pairs))
    verts = [v for v in ids if rng.random() < 0.85]
    view = host.subview(vertices=verts)
    return view.subview(edge_ids=[e for e in view.edge_id_list() if rng.random() < 0.8])


# -- adjacency from the definition ----------------------------------------------
# Built from the edge table and the live edge ids alone, so the oracles below
# share no code with the graph layer's cached arrays.


def reference_adjacency(g: Graph) -> dict[int, list[tuple[int, int]]]:
    """Live vertex -> its (neighbour, edge id) pairs, sorted."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for eid in g.edge_ids:
        u, v = g.edge_table[eid]
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    for lst in adj.values():
        lst.sort()
    return adj


def reference_components(g: Graph) -> list[list[int]]:
    """Connected components of live vertices, each sorted, in sorted order."""
    adj = reference_adjacency(g)
    seen: set[int] = set()
    comps: list[list[int]] = []
    for root in sorted(g.vertices):
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        stack = [root]
        while stack:
            for b, _ in adj[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    comp.append(b)
                    stack.append(b)
        comps.append(sorted(comp))
    return comps


def zipped_arrays(g: Graph) -> dict[int, list[tuple[int, int]]]:
    """g's cached ``arrays()`` in the form of ``reference_adjacency``."""
    nbrs, eids = g.arrays()
    return {v: list(zip(nb, eids[v])) for v, nb in nbrs.items()}


def exact_min_pieces(g: Graph) -> int:
    """Fewest pieces, cycles plus single edges, of any partition of g's edges.

    The lowest uncovered edge is either a single or lies in one cycle of the
    uncovered edges through it; each choice recurses on what is left, and
    the answer for each set of uncovered edges is kept.  Exponential in m:
    for graphs of up to about twenty edges.
    """
    ends = [g.edge_table[e] for e in g.edge_id_list()]
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for i, (u, v) in enumerate(ends):
        adj[u].append((v, i))
        adj[v].append((u, i))

    def cycles_through(i: int, left: int) -> list[int]:
        """Edge masks of the cycles in left through edge i: paths from its
        second end back to its first."""
        u, v = ends[i]
        out = []
        stack = [(v, {v}, 1 << i)]
        while stack:
            x, seen, mask = stack.pop()
            for y, j in adj[x]:
                if left >> j & 1 and not mask >> j & 1:
                    if y == u:
                        out.append(mask | 1 << j)
                    elif y not in seen:
                        stack.append((y, seen | {y}, mask | 1 << j))
        return out

    @functools.lru_cache(maxsize=None)
    def best(left: int) -> int:
        if not left:
            return 0
        i = (left & -left).bit_length() - 1
        options = [left & ~(1 << i)] + [left & ~c for c in cycles_through(i, left)]
        return 1 + min(best(rest) for rest in options)

    return best((1 << len(ends)) - 1)


# -- reference boundary walks ---------------------------------------------------
# ``neighborhood``, ``robust_neighborhood`` and ``worst_case_frontier`` as they
# stood when each walked U's boundary with its own loop and the frontier ran
# its own greedy.  Kept verbatim (the set check inlined) as the oracles of the
# differential test.


def _reference_check_sets(g: Graph, U, F) -> tuple[set[int], set[int]]:
    Uset = set(U)
    if not Uset:
        raise ValueError("U must be nonempty")
    if not Uset <= g.vertices:
        raise ValueError("U must consist of live vertices")
    Fset = set(F)
    if not Fset <= g.edge_ids:
        raise ValueError("F must consist of live edge ids")
    return Uset, Fset


def reference_neighborhood(g: Graph, U, F=()) -> set[int]:
    """External neighborhood of U in g minus the edge set F."""
    Uset, Fset = _reference_check_sets(g, U, F)
    nbrs, eids = g.arrays()
    out: set[int] = set()
    for u in Uset:
        for w, eid in zip(nbrs[u], eids[u]):
            if w not in Uset and eid not in Fset:
                out.add(w)
    return out


def reference_robust_neighborhood(g: Graph, U, F, d: int) -> set[int]:
    """Vertices outside U with at least d edges into U, in g minus F."""
    if d < 1:
        raise ValueError("d must be a positive count")
    Uset, Fset = _reference_check_sets(g, U, F)
    nbrs, eids = g.arrays()
    count: dict[int, int] = {}
    for u in Uset:
        for w, eid in zip(nbrs[u], eids[u]):
            if w not in Uset and eid not in Fset:
                count[w] = count.get(w, 0) + 1
    return {w for w, c in count.items() if c >= d}


def reference_worst_case_frontier(g: Graph, U, budget: int) -> tuple[set[int], set[int]]:
    """Delete whole neighbours of U in ascending order of their U-edge count
    (ties: lowest vertex id) while the budget lasts: (deleted ids, survivors)."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    Uset, _ = _reference_check_sets(g, U, ())
    nbrs, eids = g.arrays()
    into_u: dict[int, list[int]] = {}
    for u in Uset:
        for w, eid in zip(nbrs[u], eids[u]):
            if w not in Uset:
                into_u.setdefault(w, []).append(eid)
    order = sorted(into_u.items(), key=lambda kv: (len(kv[1]), kv[0]))
    F: set[int] = set()
    survivors = set(into_u)
    remaining = budget
    for w, eids in order:
        if len(eids) > remaining:
            break  # costs ascend; nothing cheaper is left
        remaining -= len(eids)
        F.update(eids)
        survivors.discard(w)
    return F, survivors


def brute_min_survivors(g: Graph, U, budget: int) -> int:
    """Exhaustive adversary: try every F with |F| <= budget, minimize |N(U)|."""
    from cycledecomp.graph import neighborhood

    best = len(neighborhood(g, U, set()))
    eids = sorted(g.edge_ids)
    for k in range(1, budget + 1):
        for F in itertools.combinations(eids, k):
            s = len(neighborhood(g, U, set(F)))
            if s < best:
                best = s
    return best


def brute_certify(g: Graph, p) -> bool:
    """Definitional expander check with the exhaustive adversary inside."""
    verts = g.vertex_list()
    n = g.n
    for size in range(1, (2 * n) // 3 + 1):
        for U in itertools.combinations(verts, size):
            if brute_min_survivors(g, set(U), p.budget(size)) < p.threshold(size, n):
                return False
    return True


def reference_certify(g: Graph, p):
    """Plain double-loop reference certifier (independent of the fast path):
    for every U, list each external neighbor's edge cost into U, then greedily
    spend the budget on cheapest neighbors.  Returns (is_expander, witness_U,
    subsets visited up to and including the witness)."""
    verts = g.vertex_list()
    adj = reference_adjacency(g)
    n = g.n
    checked = 0
    for size in range(1, (2 * n) // 3 + 1):
        budget = p.budget(size)
        thresh = p.threshold(size, n)
        for U in itertools.combinations(verts, size):
            checked += 1
            Uset = set(U)
            costs = {}
            for u in Uset:
                for w, _ in adj[u]:
                    if w not in Uset:
                        costs[w] = costs.get(w, 0) + 1
            survivors = len(costs)
            left = budget
            for c in sorted(costs.values()):
                if c > left:
                    break
                left -= c
                survivors -= 1
            if survivors < thresh:
                return False, Uset, checked
    return True, None, checked


def reference_certify_heuristic(g: Graph, p, seed: int):
    """The heuristic certifier as two growth loops, kept as the reference for
    the one-loop version: (violating U or None, candidate sets checked).

    The component check and the greedy growth recount U's boundary from
    scratch at every test; the BFS prefix cuts keep it incrementally.
    """
    n = g.n
    checked = 0
    nbrs = g.arrays()[0]
    max_size = (2 * n) // 3

    def survivors_from_counts(cnt, budget):
        if budget <= 0:
            return len(cnt)
        kill = 0
        for c in sorted(cnt.values()):
            if budget < c:
                break
            budget -= c
            kill += 1
        return len(cnt) - kill

    def violates(Uset):
        nonlocal checked
        size = len(Uset)
        if not (1 <= size <= max_size):
            return False
        checked += 1
        costs = {}
        for u in Uset:
            for w in nbrs[u]:
                if w not in Uset:
                    costs[w] = costs.get(w, 0) + 1
        return survivors_from_counts(costs, p.budget(size)) < p.threshold(size, n)

    comps = g.components()
    if len(comps) > 1:
        smallest = set(min(comps, key=len))
        if violates(smallest):
            return smallest, checked
    if p.connectivity_only(n):
        return None, checked

    degs = g.degrees()
    by_degree = sorted(g.vertices, key=lambda v: (degs[v], v))
    eval_all = n <= 256
    for root in by_degree[:2]:
        order = []
        seen = {root}
        frontier = [root]
        while frontier:
            order.extend(sorted(frontier))
            nxt = []
            for a in sorted(frontier):
                for b in nbrs[a]:
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        prefix = set()
        cnt = {}
        next_check = 1
        for v in order:
            prefix.add(v)
            cnt.pop(v, None)
            for w in nbrs[v]:
                if w not in prefix:
                    cnt[w] = cnt.get(w, 0) + 1
            size = len(prefix)
            if size > max_size:
                break
            if not eval_all and size < next_check:
                continue
            next_check = max(size + 1, int(size * 1.25))
            checked += 1
            if survivors_from_counts(cnt, p.budget(size)) < p.threshold(size, n):
                return prefix, checked

    rng = random.Random(seed)
    seeds = by_degree[:4]
    pool = g.vertex_list()
    while len(seeds) < 8 and pool:
        seeds.append(pool[rng.randrange(len(pool))])
    step_cap = min(max_size, 96)
    for root in seeds:
        Uset = {root}
        if violates(Uset):
            return Uset, checked
        bnd = {}
        for w in nbrs[root]:
            bnd[w] = bnd.get(w, 0) + 1
        for _ in range(step_cap - 1):
            if not bnd:
                break
            cands = sorted(bnd.items(), key=lambda kv: (-kv[1], kv[0]))[:24]
            best, best_fresh = None, None
            for v, _ in cands:
                fresh = sum(1 for w in nbrs[v] if w not in Uset and w not in bnd)
                if best_fresh is None or fresh < best_fresh:
                    best, best_fresh = v, fresh
            v = best
            Uset.add(v)
            del bnd[v]
            for w in nbrs[v]:
                if w not in Uset:
                    bnd[w] = bnd.get(w, 0) + 1
            if len(Uset) > max_size:
                break
            if violates(Uset):
                return Uset, checked
    return None, checked


def reference_shortest_through_path(adj, used, V, u, v, ell):
    """Level-by-level BFS that scans every frontier vertex's whole adjacency
    for an unused edge to v (independent of the early-exit search).  Returns
    (vertices, edge ids) of the first path found, or None."""
    parent = {u: None}
    frontier = [u]
    dist = 0
    while frontier and dist < ell:
        dist += 1
        nxt = []
        for a in frontier:
            for b, eid in adj[a]:
                if eid in used or b in parent:
                    continue
                if b == v:
                    parent[b] = (a, eid)
                    vs, es = [v], []
                    cur = v
                    while parent[cur] is not None:
                        prv, pe = parent[cur]
                        vs.append(prv)
                        es.append(pe)
                        cur = prv
                    return vs[::-1], es[::-1]
                if b in V:
                    parent[b] = (a, eid)
                    nxt.append(b)
        frontier = nxt
    return None


# -- reference matching oracle -------------------------------------------------
# ``_route_matching_oracle`` as it stood when it backtracked by recursion, one
# call per pair, so a batch of about 1,000 pairs overflowed Python's stack.
# Kept verbatim, the failures' dropped strategy aside, as the oracle of the
# differential test.


def reference_route_matching_oracle(
    g: Graph, batch: PairBatch, V: frozenset[int], ell: int
) -> Union[RoutedPaths, RouteFailure]:
    """Exact backtracking over enumerated candidate paths per pair.

    Ground truth for feasibility: a failure here means no system of pairwise
    edge-disjoint through-V paths of length <= ell exists.
    """
    if g.n > ORACLE_VERTEX_CAP or ell > ORACLE_ELL_CAP:
        raise CapacityError(
            f"matching oracle capped at n<={ORACLE_VERTEX_CAP}, ell<={ORACLE_ELL_CAP}"
        )
    nbrs, eids = g.arrays()
    cands = [
        _enumerate_through_paths(nbrs, eids, V, u, v, ell, ORACLE_CANDIDATE_CAP)
        for u, v in batch.pairs
    ]
    if any(not c for c in cands):
        stuck = tuple(p for p, c in zip(batch.pairs, cands) if not c)
        return RouteFailure(stuck, 1, "pair has no candidate path")
    order = sorted(range(len(cands)), key=lambda i: (len(cands[i]), i))
    chosen: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def bt(pos: int, used: frozenset[int]) -> bool:
        if pos == len(order):
            return True
        idx = order[pos]
        for cand in cands[idx]:
            eids = cand[1]
            if used & set(eids):
                continue
            chosen[idx] = cand
            if bt(pos + 1, used | set(eids)):
                return True
            del chosen[idx]
        return False

    if not bt(0, frozenset()):
        return RouteFailure(tuple(batch.pairs), 1,
                            "no edge-disjoint system of representatives exists")
    paths = tuple(Path(chosen[i][0], chosen[i][1]) for i in range(len(batch.pairs)))
    return RoutedPaths(paths, V, ell)


# -- reference router ----------------------------------------------------------
# ``route_pairs`` as it stood before non-final attempts stopped at their first
# stuck pair and searches expanded cached through-set lists: every attempt
# routes every pair, and each search is the full-scan reference above.  Kept
# verbatim (the search call aside) as the oracle of the differential test.


def reference_route_pairs(
    g: Graph,
    batch: PairBatch,
    V: Iterable[int],
    ell: int,
    strategy: str = "greedy",
    *,
    rng_seed: int = 0,
    retries: int = 8,
) -> Union[RoutedPaths, RouteFailure]:
    """Connect every pair by edge-disjoint paths internally through V.

    greedy: pairs are processed in a seeded random order, each taking the
    shortest through-V path of length <= ell in the graph minus edges already
    used; the whole batch is retried with fresh orders up to ``retries``
    times.  matching_oracle: exact
    backtracking over enumerated candidates (small inputs only).  Raises
    ValueError for a pair endpoint that is not a live vertex of g.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    for w in (w for pair in batch.pairs for w in pair):
        if w not in g.vertices:
            raise ValueError(f"pair endpoint {w} is not a vertex of the graph")
    Vset = frozenset(V)
    if strategy == "matching_oracle":
        return reference_route_matching_oracle(g, batch, Vset, ell)
    if strategy != "greedy":
        raise ValueError(f"unknown strategy {strategy!r}")

    adj = reference_adjacency(g)
    rng = random.Random(rng_seed)
    k = len(batch.pairs)
    last_stuck: list[int] = []
    for attempt in range(1, retries + 1):
        order = list(range(k))
        rng.shuffle(order)
        used: set[int] = set()
        found: dict[int, tuple[list[int], list[int]]] = {}
        stuck: list[int] = []
        for idx in order:
            u, v = batch.pairs[idx]
            res = reference_shortest_through_path(adj, used, Vset, u, v, ell)
            if res is None:
                stuck.append(idx)
                continue
            found[idx] = res
            used.update(res[1])
        if not stuck:
            paths = tuple(Path(tuple(found[i][0]), tuple(found[i][1])) for i in range(k))
            return RoutedPaths(paths, Vset, ell)
        last_stuck = stuck
    return RouteFailure(
        tuple(batch.pairs[i] for i in sorted(last_stuck)),
        retries,
        "dead end after retries",
    )


# -- reference Euler walks -----------------------------------------------------
# The walk as it stood before it read the component's slice of the cached
# arrays: an edge table with None marking virtual pairing edges, and a
# tuple adjacency sorted by (neighbour, table index).  Built from the
# definition, as the oracle of the differential test.


def _reference_euler_circuit(
    start: int,
    adj: dict[int, list[tuple[int, int]]],
    used: list[bool],
    ptr: dict[int, int],
) -> tuple[list[int], list[int]]:
    """Hierholzer circuit over a connected even-degree multigraph.

    adj maps vertex -> [(edge_index, other)].  Returns the circuit as a
    vertex sequence v0..vk (v0 == vk) and edge-index sequence e1..ek where
    e_i joins v_{i-1} and v_i.
    """
    vstack = [start]
    estack: list[int] = []
    vout: list[int] = []
    eout: list[int] = []
    while vstack:
        v = vstack[-1]
        lst = adj[v]
        i = ptr[v]
        while i < len(lst) and used[lst[i][0]]:
            i += 1
        ptr[v] = i
        if i == len(lst):
            vout.append(v)
            vstack.pop()
            if estack:
                eout.append(estack.pop())
        else:
            ei, w = lst[i]
            used[ei] = True
            ptr[v] = i + 1
            vstack.append(w)
            estack.append(ei)
    vout.reverse()
    eout.reverse()
    return vout, eout


def reference_component_walks(
    g: Graph, comp: list[int], pair_odd: bool
) -> list[tuple[list[int], list[int]]]:
    """Euler-circuit walks of one component, virtual pairing edges removed.

    Returns a list of (vertex_seq, edge_id_seq) walks.  With pair_odd the
    odd-degree vertices are paired ascending through virtual edges and each
    returned walk is open (one per pair); otherwise all degrees must already
    be even and the single closed circuit is returned.
    """
    ref = reference_adjacency(g)
    edges: list[tuple[int, int, Optional[int]]] = []
    for u in comp:
        for v, eid in ref[u]:
            if u < v:
                edges.append((u, v, eid))
    if not edges:
        return []
    odd = sorted(v for v in comp if len(ref[v]) % 2 == 1)
    if odd and not pair_odd:
        raise ValueError(f"odd-degree vertices present: {odd[:5]}")
    for i in range(0, len(odd), 2):
        edges.append((odd[i], odd[i + 1], None))

    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in comp}
    for idx, (u, v, _) in enumerate(edges):
        adj[u].append((idx, v))
        adj[v].append((idx, u))
    for v in comp:
        adj[v].sort(key=lambda t: (t[1], t[0]))
    used = [False] * len(edges)
    ptr = {v: 0 for v in comp}
    vseq, eseq = _reference_euler_circuit(comp[0], adj, used, ptr)
    assert all(used) and len(eseq) == len(edges)

    virt = [i for i, idx in enumerate(eseq) if edges[idx][2] is None]
    if not virt:
        return [(vseq, [edges[idx][2] for idx in eseq])]

    k = len(eseq)
    first = virt[0]
    order = list(range(first + 1, k)) + list(range(0, first + 1))
    walks: list[tuple[list[int], list[int]]] = []
    cur_vs = [vseq[first + 1]]
    cur_es: list[int] = []
    for posn in order:
        idx = eseq[posn]
        assert cur_vs[-1] == vseq[posn]
        if edges[idx][2] is None:
            if cur_es:
                walks.append((cur_vs, cur_es))
            cur_vs = [vseq[posn + 1]]
            cur_es = []
        else:
            cur_es.append(edges[idx][2])
            cur_vs.append(vseq[posn + 1])
    return walks


# -- reference long-cycle peel ------------------------------------------------
# The peel as it stood before it kept a compacted live adjacency: every sweep
# skips consumed edges through the ``alive`` set, and every finder round runs
# on a fresh ``g.subview(edge_ids=alive)``.  Kept verbatim (names prefixed) as
# the oracle of the differential test.


def _reference_longest_back_edge_cycle(g: Graph, adj) -> Optional[Cycle]:
    """Longest cycle closable by a single DFS back edge, over all components.

    The DFS stack holds one vertex per depth, so any in-stack neighbor other
    than the parent is a proper ancestor and closes a simple cycle of length
    >= 3.  Returns None exactly when g is acyclic.
    """
    seen: set[int] = set()
    best: Optional[Cycle] = None
    for root in g.vertex_list():
        if root in seen:
            continue
        depth = {root: 0}
        pe: dict[int, tuple[int, int]] = {}  # child -> (parent, edge id)
        stack = [root]
        instack = {root}
        ptr = {root: 0}
        while stack:
            v = stack[-1]
            lst = adj[v]
            i = ptr[v]
            advanced = False
            while i < len(lst):
                w, eid = lst[i]
                i += 1
                if w not in depth:
                    depth[w] = depth[v] + 1
                    pe[w] = (v, eid)
                    ptr[v] = i
                    stack.append(w)
                    instack.add(w)
                    ptr[w] = 0
                    advanced = True
                    break
                if w in instack and (v not in pe or pe[v][1] != eid):
                    length = depth[v] - depth[w] + 1
                    if length >= 3 and (best is None or length > best.length):
                        ups = []
                        x = v
                        while x != w:
                            ups.append(x)
                            x = pe[x][0]
                        down = ups[::-1]
                        best = Cycle(
                            tuple([w] + down),
                            tuple([pe[x][1] for x in down] + [eid]),
                        )
            if not advanced:
                ptr[v] = i
                stack.pop()
                instack.discard(v)
        seen.update(depth)
    return best


def reference_find_long_cycle_dfs(g: Graph) -> Optional[Cycle]:
    """Long-cycle extraction via the unexplored/path/removed DFS process.

    Runs DFS on the largest component tracking the unexplored set U and the
    removed set R; the path P is snapshotted at the first moment |U| = |R|.
    P splits into consecutive X, Y, Z; a shortest X-Z path Q in G minus Y is
    found by multi-source BFS (its interior automatically avoids all of P),
    and Q plus the P-segment between its endpoints closes a simple cycle
    containing all of Y.  When X and Z are separated (Y is a separator, which
    well-expanding inputs rule out but sparse ones do not) the search falls
    back to the longest single-back-edge cycle, so None is returned only for
    acyclic inputs.
    """
    if g.n == 0 or g.m == 0:
        return None
    comp = max(reference_components(g), key=len)
    if len(comp) < 3:
        return None
    adj = reference_adjacency(g)
    root = comp[0]

    unexplored = set(comp)
    unexplored.discard(root)
    u_count, r_count = len(comp) - 1, 0
    path = [root]
    ptr = {root: 0}
    snapshot: Optional[list[int]] = None
    while path:
        if u_count == r_count:
            snapshot = list(path)
            break
        v = path[-1]
        lst = adj[v]
        i = ptr[v]
        nxt = None
        while i < len(lst):
            w = lst[i][0]
            if w in unexplored:
                nxt = w
                break
            i += 1
        ptr[v] = i
        if nxt is None:
            path.pop()
            r_count += 1
        else:
            unexplored.discard(nxt)
            u_count -= 1
            path.append(nxt)
            ptr[nxt] = 0
    if snapshot is None or len(snapshot) < 3:
        return _reference_longest_back_edge_cycle(g, adj)

    p = len(snapshot)
    y_len = max(1, min(int(1 / 3 * p), p - 2))
    x_len = (p - y_len + 1) // 2
    X = snapshot[:x_len]
    Y = snapshot[x_len : x_len + y_len]
    Z = snapshot[x_len + y_len :]

    y_set = set(Y)
    z_set = set(Z)
    parent: dict[int, Optional[tuple[int, int]]] = {x: None for x in X}
    queue = deque(sorted(X))
    hit = None
    while queue and hit is None:
        v = queue.popleft()
        for w, eid in adj[v]:
            if w in y_set or w in parent:
                continue
            parent[w] = (v, eid)
            if w in z_set:
                hit = w
                break
            queue.append(w)
    if hit is None:
        return _reference_longest_back_edge_cycle(g, adj)

    q_vs = [hit]
    q_es: list[int] = []
    cur = hit
    while parent[cur] is not None:
        prev, eid = parent[cur]
        q_vs.append(prev)
        q_es.append(eid)
        cur = prev
    q_vs.reverse()  # X endpoint first
    q_es.reverse()

    pos = {v: i for i, v in enumerate(snapshot)}
    ix, iz = pos[q_vs[0]], pos[hit]
    seg = snapshot[ix : iz + 1]
    seg_es = [g.edge_id(seg[t], seg[t + 1]) for t in range(len(seg) - 1)]
    cyc_vs = tuple(seg) + tuple(reversed(q_vs[1:-1]))
    cyc_es = tuple(seg_es) + tuple(reversed(q_es))
    return Cycle(cyc_vs, cyc_es)


def _reference_back_edge_pass(
    g: Graph,
    adj: dict[int, list[tuple[int, int]]],
    alive: set[int],
    min_len: int,
    out: list[Cycle],
) -> int:
    """One DFS sweep extracting qualifying back-edge cycles in place.

    Per-vertex adjacency pointers only move forward, so a full pass is
    near-linear; cycles missed because their stack was truncated are picked
    up by later passes.
    """
    found = 0
    visited: set[int] = set()
    ptr = {v: 0 for v in g.vertices}
    for root in g.vertex_list():
        if root in visited:
            continue
        visited.add(root)
        stack_v = [root]
        stack_e: list[Optional[int]] = [None]
        depth = {root: 0}
        top = 1
        while stack_v:
            v = stack_v[-1]
            lst = adj[v]
            i = ptr[v]
            advanced = False
            while i < len(lst):
                w, eid = lst[i]
                if eid not in alive or eid == stack_e[-1]:
                    i += 1
                    continue
                j = depth.get(w)
                if j is not None:
                    if top - j >= min_len:
                        cyc_vs = tuple(stack_v[j:])
                        cyc_es = tuple(stack_e[j + 1 :]) + (eid,)
                        out.append(Cycle(cyc_vs, cyc_es))
                        alive.difference_update(cyc_es)
                        found += 1
                        # unmark the consumed vertices so this pass can
                        # descend through them again along surviving edges
                        for t in range(j + 1, top):
                            del depth[stack_v[t]]
                            visited.discard(stack_v[t])
                        del stack_v[j + 1 :]
                        del stack_e[j + 1 :]
                        top = j + 1
                        advanced = True
                        break
                    i += 1
                    continue
                if w in visited:
                    i += 1
                    continue
                ptr[v] = i + 1
                visited.add(w)
                depth[w] = top
                stack_v.append(w)
                stack_e.append(eid)
                top += 1
                advanced = True
                break
            if not advanced:
                ptr[v] = i
                stack_v.pop()
                stack_e.pop()
                del depth[v]
                top -= 1
    return found


def reference_peel_long_cycles(g: Graph, min_len: int) -> tuple[list[Cycle], Graph]:
    """Greedily extract edge-disjoint cycles of length >= min_len.

    Each round tries the DFS long-cycle finder once, then runs back-edge
    sweeps until they stop producing; rounds repeat until neither search
    finds anything.  Maximality is relative to these searches (a second peel
    of the residual returns no cycles).
    """
    if min_len < 3:
        raise ValueError("min_len must be at least 3")
    alive = set(g.edge_ids)
    adj = reference_adjacency(g)
    cycles: list[Cycle] = []
    while True:
        progress = False
        cyc = reference_find_long_cycle_dfs(g.subview(edge_ids=alive))
        if cyc is not None and len(cyc.edge_ids) >= min_len:
            cycles.append(cyc)
            alive.difference_update(cyc.edge_ids)
            progress = True
        while _reference_back_edge_pass(g, adj, alive, min_len, cycles):
            progress = True
        if not progress:
            break
    return cycles, g.subview(edge_ids=alive)


# -- reference parser -----------------------------------------------------------
# ``parse_edge_list`` and ``Graph.from_edges`` as they stood before the parser
# built the host graph's edge index itself: the parser checks each line, then
# ``from_edges`` checks every pair again in a set of its own, and the graph
# builds its {pair: edge id} map on the first ``edge_id`` call.  Kept verbatim
# as the oracle of the differential test, but for the parser handing its pairs
# over in pair order, as every host's table is; ``reference_from_edges`` keeps
# its input order, so its callers pass pairs in pair order.


def reference_from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    table: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"endpoint out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        table.append(key)
    return Graph(n, tuple(table), frozenset(range(n)), frozenset(range(len(table))))


def reference_parse_edge_list(text: str) -> Graph:
    n = -1
    m = -1
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    header_done = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"expected two integers, got {raw!r}", line_no)
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"expected two integers, got {raw!r}", line_no) from None
        if not header_done:
            if a < 0 or b < 0:
                raise ParseError("header counts must be nonnegative", line_no)
            if a > MAX_VERTICES:
                raise ParseError(f"header n={a} exceeds the limit of {MAX_VERTICES}", line_no)
            n, m = a, b
            header_done = True
            continue
        if len(pairs) == m:
            raise ParseError(f"more than {m} edge lines", line_no)
        if not (0 <= a < b < n):
            raise ParseError(f"edge must satisfy 0 <= u < v < n, got {a} {b}", line_no)
        if (a, b) in seen:
            raise ParseError(f"duplicate edge {a} {b}", line_no)
        seen.add((a, b))
        pairs.append((a, b))
    if not header_done:
        raise ParseError("missing header line", 1)
    if len(pairs) != m:
        raise ParseError(f"header promised {m} edges, found {len(pairs)}", 1)
    return reference_from_edges(n, sorted(pairs))


# -- reference validators ---------------------------------------------------------
# ``validate_decomposition``, ``decomposition_from_json_dict`` and
# ``validate_decomposition_json`` as they stood before they read the graph's
# edge index and added each cycle's edges in bulk: one ``add_edge`` call and
# one edge-id lookup per edge.  Kept verbatim as the oracle of the
# differential test, with the pieces they called (``Cycle.check``,
# ``Graph.edge_id``, ``_vertex_ids``) copied in as they were then.


def _reference_cycle_check(cyc: Cycle, g: Graph) -> None:
    live, tab, vs = g.edge_ids, g.edge_table, cyc.vertices
    L = len(vs)
    for i, eid in enumerate(cyc.edge_ids):
        if eid not in live:
            raise ValueError(f"cycle edge {eid} not live")
        a, b = vs[i], vs[(i + 1) % L]
        if ((a, b) if a < b else (b, a)) != tab[eid]:
            raise ValueError(f"cycle edge {eid} does not join {a},{b}")


def reference_validate_decomposition(g: Graph, d: Decomposition) -> ValidationReport:
    problems: list[str] = []

    def note(msg: str) -> None:
        if len(problems) < 20:
            problems.append(msg)

    if d.source != g.fingerprint():
        note(f"fingerprint mismatch: {d.source} vs {g.fingerprint()}")
    if d.n != g.host_n:
        note(f"vertex count mismatch: {d.n} vs {g.host_n}")
    if d.m != g.m:
        note(f"edge count mismatch: {d.m} vs {g.m}")

    used: set[int] = set()
    covered = 0
    for ci, cyc in enumerate(d.cycles):
        try:
            _reference_cycle_check(cyc, g)
        except ValueError as exc:
            note(f"cycle {ci}: {exc}")
            continue
        for eid in cyc.edge_ids:
            if eid in used:
                note(f"cycle {ci}: edge {eid} already covered")
            else:
                used.add(eid)
                covered += 1
    for eid in d.single_edges:
        if eid not in g.edge_ids:
            note(f"single edge {eid} not live")
        elif eid in used:
            note(f"single edge {eid} already covered")
        else:
            used.add(eid)
            covered += 1
    missing = g.edge_ids - used
    if missing:
        note(f"{len(missing)} live edges uncovered, e.g. {sorted(missing)[:5]}")

    return ValidationReport(
        ok=not problems,
        problems=tuple(problems),
        n_cycles=len(d.cycles),
        n_single_edges=len(d.single_edges),
        covered_edges=covered,
    )


def reference_decomposition_from_json_dict(doc: dict, g: Graph) -> Decomposition:
    eid_of = {g.edge_table[eid]: eid for eid in g.edge_ids}

    def eid(u: int, v: int) -> int:
        try:
            return eid_of[(u, v) if u < v else (v, u)]
        except KeyError:
            raise ValueError(f"({u}, {v}) is not an edge of the graph") from None

    cycles = []
    for verts in doc["cycles"]:
        vs = tuple(verts)
        eids = tuple(eid(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))
        cycles.append(Cycle(vs, eids))
    singles = tuple(eid(u, v) for u, v in doc["edges"])
    return Decomposition(
        source=doc.get("source", g.fingerprint()),
        n=doc["n"],
        m=doc["m"],
        cycles=tuple(cycles),
        single_edges=singles,
        stats=dict(doc.get("stats", {})),
    )


def _reference_vertex_ids(item, what: str, note) -> Optional[list[int]]:
    if isinstance(item, list) and all(type(v) is int for v in item):
        return item
    if not isinstance(item, list) or not all(isinstance(v, (int, float)) for v in item):
        raise ValueError(f"{what}: expected a list of vertex ids, got {repr(item)[:40]}")
    bad = next(v for v in item if type(v) is not int)
    note(f"{what}: vertex id {json.dumps(bad)} is not an integer")
    return None


def reference_validate_decomposition_json(doc: dict, g: Optional[Graph] = None) -> ValidationReport:
    if not isinstance(doc, dict):
        raise ValueError("decomposition document must be a JSON object")
    problems: list[str] = []

    def note(msg: str) -> None:
        if len(problems) < 20:
            problems.append(msg)

    def members(key: str) -> list:
        val = doc.get(key, [])
        if not isinstance(val, list):
            raise ValueError(f"{key} must be a list")
        return val

    n = doc.get("n")
    m = doc.get("m")
    if type(n) is not int or n < 0:  # bools are not counts
        note("bad or missing n")
        n = 0
    if type(m) is not int or m < 0:
        note("bad or missing m")
        m = 0

    edge_multiset: list[tuple[int, int]] = []

    def add_edge(a: int, b: int, what: str) -> None:
        if a == b:
            note(f"{what}: loop at {a}")
            return
        if not (0 <= a < n and 0 <= b < n):
            note(f"{what}: endpoint out of range ({a}, {b})")
            return
        edge_multiset.append((a, b) if a < b else (b, a))

    # a cycle also joins its last vertex to its first; a path does not
    for key, kind, min_len, closing in (("cycles", "cycle", 3, 1), ("paths", "path", 2, 0)):
        for idx, item in enumerate(members(key)):
            what = f"{kind} {idx}"
            verts = _reference_vertex_ids(item, what, note)
            if verts is None:
                continue
            if len(verts) < min_len:
                note(f"{what}: fewer than {min_len} vertices")
                continue
            if len(set(verts)) != len(verts):
                note(f"{what}: repeated vertex")
                continue
            for i in range(len(verts) - 1 + closing):
                add_edge(verts[i], verts[(i + 1) % len(verts)], what)
    singles = members("edges")
    for si, item in enumerate(singles):
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"single edge {si}: expected a [u, v] pair, got {repr(item)[:40]}")
        pair = _reference_vertex_ids(item, f"single edge {si}", note)
        if pair is not None:
            add_edge(pair[0], pair[1], "single edge")

    counts = Counter(edge_multiset)
    if len(counts) != len(edge_multiset):
        dupes = sorted(e for e, c in counts.items() if c > 1)
        note(f"edges covered more than once, e.g. {dupes[:5]}")
    if len(edge_multiset) != m:
        note(f"document covers {len(edge_multiset)} edges but claims m={m}")

    if g is not None:
        actual = {g.edge_table[eid] for eid in g.edge_ids}
        implied = counts.keys()
        if g.host_n != n:
            note(f"graph has n={g.host_n}, document says {n}")
        if implied != actual:
            extra = sorted(implied - actual)[:5]
            miss = sorted(actual - implied)[:5]
            note(f"edge sets differ from graph (extra {extra}, missing {miss})")
        src = doc.get("source")
        if src is not None and src != g.fingerprint():
            note("source fingerprint does not match graph")

    return ValidationReport(
        ok=not problems,
        problems=tuple(problems),
        n_cycles=len(members("cycles")),
        n_single_edges=len(singles),
        covered_edges=len(counts),
    )


# -- reference expander split ---------------------------------------------------
# ``almost_decompose_into_expanders`` as it stood before it emitted the
# components at once in the connectivity-only regime: it builds the tuple
# adjacency for the components' edge ids, pushes every component back on
# its stack, and asks both certifiers about each.  Kept verbatim (name
# prefixed) as the oracle of the differential test, with its own copy of
# the violation search it called.


def reference_find_violation(
    g: Graph, p: ExpanderParams, *, cap: int, seed: int
) -> Optional[tuple[set[int], set[int]]]:
    """Heuristic search first; exhaustive fallback under the cap.  Both
    modes get cap and seed, and each ignores the one it does not use."""
    for mode in ("heuristic", "exhaustive") if g.n <= cap else ("heuristic",):
        v = certify_expander(g, p, mode=mode, cap=cap, seed=seed)
        if not v.is_expander:
            U, F = v.violation
            return set(U), set(F)
    return None


def reference_almost_decompose_into_expanders(
    g: Graph,
    p: ExpanderParams,
    *,
    cap: int = 20,
    seed: int = 0,
) -> AlmostDecomposeResult:
    """Recursively split g along expansion violations.

    At each node: disconnected graphs recurse per component (batched form of
    the violation U = smallest component, F = empty).  Otherwise a violation
    (U, F) is searched heuristically, with an exhaustive fallback when the
    part fits under ``cap``; finding one splits the node into
    G1 = G[U ∪ N_{G-F}(U)] - F and G2 = G∖U - E(G1) - F with F removed, and
    both sides recurse.  Parts where no violation is found are emitted,
    tagged certified when the exhaustive pass vouched for them or when
    connectivity alone proves them expanders.

    When ``p.connectivity_only(n)`` holds for a part (zero removal budget,
    unit thresholds: the ``engineering`` parameters up to n of about 8000),
    being an expander means being connected, so the parts are the connected
    components, each certified whatever its size; both certifiers then
    answer from a component count.

    Asserted on return: exact edge partition, Σ|parts| <= 2n, recursion
    depth <= n, and removed = ∅ whenever s = 0.
    """
    parts: list[Graph] = []
    certified: list[bool] = []
    removed: set[int] = set()
    max_depth = 0
    n_top = max(g.n, 1)

    stack: list[tuple[Graph, int]] = [(g, 0)]
    while stack:
        cur, depth = stack.pop()
        max_depth = max(max_depth, depth)
        if depth > n_top:
            raise TheoremViolation("almost-decomposition recursion exceeded n levels")
        if cur.n == 0:
            continue
        comps = reference_components(cur)
        if len(comps) > 1:
            adj = reference_adjacency(cur)  # one pass, not an edge scan per component
            for comp in sorted(comps, reverse=True):
                eids = frozenset(eid for v in comp for _, eid in adj[v])
                part = Graph(cur.host_n, cur.edge_table, frozenset(comp), eids)
                stack.append((part, depth + 1))
            continue

        violation = reference_find_violation(cur, p, cap=cap, seed=seed)
        if violation is None:
            parts.append(cur)
            certified.append(cur.n <= cap or p.connectivity_only(cur.n))
            continue
        U, F = violation
        X = U | neighborhood(cur, U, F)
        if len(X) >= cur.n:
            # no progress possible; only reachable with thresholds far outside
            # the regime the decomposition argument covers
            parts.append(cur)
            certified.append(False)
            continue
        g1 = cur.subview(vertices=X, edge_ids=cur.edge_ids - F)
        g2 = cur.subview(vertices=cur.vertices - U, edge_ids=cur.edge_ids - F - g1.edge_ids)
        removed |= F
        stack.append((g2, depth + 1))
        stack.append((g1, depth + 1))

    result = AlmostDecomposeResult(
        parts=tuple(parts),
        removed=frozenset(removed),
        certified=tuple(certified),
        max_depth=max_depth,
    )
    _assert_almost_decompose_guarantees(g, p, result)
    return result


# -- reference density round ------------------------------------------------------
# ``pipeline.density_step`` as it stood while it ran the expander split on
# the peel residue, with the ``ExpanderParams`` each preset then carried.
# Kept (name prefixed) as the oracle of the differential test.

# epsilon 2^-5, s = 0: expansion is connectivity up to n of about 8,069
ENGINEERING_PARAMS = ExpanderParams(2 ** -5, 0.0, "log2sq")


def paper_params(n: int) -> ExpanderParams:
    """The paper's literal parameters on an n-vertex host: epsilon 2^-5,
    s = log2(n)^273, saturating at the largest float past n of about 11,290,
    and denominator 1."""
    logn = max(1.0, math.log2(max(n, 2)))
    try:
        s = logn ** 273
    except OverflowError:
        s = sys.float_info.max
    return ExpanderParams(2 ** -5, s, "const", 1.0)


def reference_density_step(g: Graph, cfg: PipelineConfig) -> tuple[list[Cycle], Graph, dict]:
    """One density-reduction round: peel, split into expanders, decompose each.

    Long cycles of length at least the average degree are peeled first.  The
    residue is split into expander parts with the preset's parameters; the
    edges the split removes are left over, and every part with an edge runs
    through ``decompose_expander``.
    """
    t0 = time.perf_counter()
    params = paper_params(g.host_n) if cfg.preset == "paper" else ENGINEERING_PARAMS
    d_in = g.avg_degree()
    min_len = max(3, math.ceil(d_in))
    peeled, residual = peel_long_cycles(g, min_len)
    cycles = list(peeled)
    singles: list[int] = []
    report = {"d_in": d_in, "min_len": min_len, "edges_in": g.m, "parts": 0, "removed_edges": 0}
    report.update(dict.fromkeys(PART_COUNTERS, 0))
    if residual.m:
        res = almost_decompose_into_expanders(residual, params, cap=20, seed=cfg.rng_seed)
        singles.extend(res.removed)
        report["parts"] = len(res.parts)
        report["removed_edges"] = len(res.removed)
        for part in res.parts:
            if part.m == 0:
                continue
            got = decompose_expander(part, cfg)
            cycles.extend(got.cycles)
            singles.extend(got.rest.edge_id_list())
            for key in PART_COUNTERS:
                report[key] += got.stats[key]
    leftover = Graph(g.host_n, g.edge_table, residual.vertices, frozenset(singles))
    report.update(
        d_out=leftover.avg_degree(),
        cycles_peeled=len(peeled),
        cycles_general=len(cycles) - len(peeled),
        cycle_edges=sum(len(c.edge_ids) for c in cycles),
        edges_left=leftover.m,
        seconds=time.perf_counter() - t0,
    )
    return cycles, leftover, report
