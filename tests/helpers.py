"""Shared graph builders and brute-force oracles used across the test suite."""

from __future__ import annotations

import itertools
import random

from cycledecomp.graph import Graph


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


def ball_by_path_enumeration(g: Graph, U, V, i, F=()) -> set[int]:
    """Independent ball oracle: enumerate every simple path of length <= i
    starting in U with all internal vertices in V, avoiding edges in F, and
    collect endpoints that lie in V."""
    Vset, Fset = set(V), set(F)
    out = set()
    adj = g.adjacency()

    def extend(pathv: list[int]) -> None:
        if len(pathv) - 1 >= i:
            return
        tip = pathv[-1]
        # tip may continue only if it is the start or an internal-in-V vertex
        if len(pathv) > 1 and tip not in Vset:
            return
        for w, eid in adj[tip]:
            if eid in Fset or w in pathv:
                continue
            if w in Vset:
                out.add(w)
            extend(pathv + [w])

    for u in U:
        if u in Vset:
            out.add(u)
        extend([u])
    return out


def edges_of(g: Graph) -> set[tuple[int, int]]:
    return {g.edge_table[eid] for eid in g.edge_ids}


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
                for w, _ in g.adjacency()[u]:
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
