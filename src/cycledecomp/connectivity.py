"""Edge-disjoint routing through designated vertex sets, and sparse skeletons.

Batches of vertex pairs are connected by edge-disjoint paths whose internal
vertices lie in a through-set V.  A skeleton is a sparse subgraph built by
routing the edges of a random template as such paths; later batches are
served by routing in the template and substituting each template edge with
its replacement path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .expansion import CapacityError
from .graph import Graph, Path
from .pathscycles import _excise_walk


@dataclass(frozen=True)
class PairBatch:
    """Unordered vertex pairs with a per-vertex multiplicity bound t."""

    pairs: tuple[tuple[int, int], ...]
    t: int

    def __post_init__(self):
        mult: dict[int, int] = {}
        for u, v in self.pairs:
            if u == v:
                raise ValueError(f"pair ({u}, {v}) is degenerate")
            mult[u] = mult.get(u, 0) + 1
            mult[v] = mult.get(v, 0) + 1
        worst = max(mult.values(), default=0)
        if worst > self.t:
            raise ValueError(f"vertex multiplicity {worst} exceeds bound t={self.t}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], t: Optional[int] = None) -> "PairBatch":
        ps = tuple((min(u, v), max(u, v)) for u, v in pairs)
        if t is None:
            mult: dict[int, int] = {}
            for u, v in ps:
                mult[u] = mult.get(u, 0) + 1
                mult[v] = mult.get(v, 0) + 1
            t = max(mult.values(), default=1)
        return cls(ps, t)


@dataclass(frozen=True)
class RoutedPaths:
    """One path per pair, internally through ``through_set``, length <= ell."""

    paths: tuple[Path, ...]
    through_set: frozenset[int]
    ell: int

    def validate(self, g: Graph, batch: PairBatch) -> list[str]:
        problems: list[str] = []
        if len(self.paths) != len(batch.pairs):
            problems.append("path count differs from pair count")
            return problems
        used: set[int] = set()
        for path, (u, v) in zip(self.paths, batch.pairs):
            try:
                path.check(g)
            except (AssertionError, ValueError) as exc:
                problems.append(f"invalid path for ({u}, {v}): {exc}")
                continue
            if {path.vertices[0], path.vertices[-1]} != {u, v}:
                problems.append(f"path endpoints {path.vertices[0]},{path.vertices[-1]} != pair ({u}, {v})")
            if len(path.edge_ids) > self.ell:
                problems.append(f"path for ({u}, {v}) has length {len(path.edge_ids)} > {self.ell}")
            bad = [w for w in path.vertices[1:-1] if w not in self.through_set]
            if bad:
                problems.append(f"internal vertices {bad[:3]} outside through-set for ({u}, {v})")
            overlap = used & set(path.edge_ids)
            if overlap:
                problems.append(f"edges {sorted(overlap)[:3]} reused by ({u}, {v})")
            used |= set(path.edge_ids)
        return problems


@dataclass(frozen=True)
class RouteFailure:
    stuck: tuple[tuple[int, int], ...]
    attempts: int
    strategy: str
    reason: str = ""


def _shortest_through_path(
    adj: dict[int, list[tuple[int, int]]],
    to: dict[int, dict[int, int]],
    through: dict[int, list[tuple[int, int]]],
    used: set[int],
    V: frozenset[int],
    u: int,
    v: int,
    ell: int,
) -> Optional[tuple[list[int], list[int]]]:
    """Shortest u-v path with internals in V, length <= ell, avoiding used edges.

    Breadth-first from u, for live vertices u != v and ell >= 1
    (``route_pairs`` ensures all three).  The path returned ends with the
    first vertex, in discovery order, that has an unused edge to v.  Each
    through-set vertex is tested against v's neighbours as it is
    discovered, so the search stops at the first hit and never expands the
    last level.  ``to`` caches each target's {neighbour: edge id} map for
    the searches that share ``adj``; ``through`` caches each expanded
    vertex's adjacency filtered to V, in adjacency order, for the searches
    that share ``adj`` and V.
    """
    to_v = to.get(v)
    if to_v is None:
        to_v = to[v] = dict(adj[v])
    last = to_v.get(u)
    if last is not None and last not in used:
        return [u, v], [last]
    parent: dict[int, Optional[tuple[int, int]]] = {u: None}
    frontier = [u]
    dist = 1
    while frontier and dist < ell:
        dist += 1  # a vertex discovered in this round closes a path of this length
        nxt: list[int] = []
        for a in frontier:
            inner = through.get(a)
            if inner is None:
                inner = through[a] = [(b, eid) for b, eid in adj[a] if b in V]
            for b, eid in inner:
                if b in parent or eid in used:
                    continue
                parent[b] = (a, eid)
                last = to_v.get(b)
                if last is not None and last not in used:
                    vs = [v, b]
                    es = [last, eid]
                    cur = a
                    while parent[cur] is not None:
                        prv, pe = parent[cur]
                        vs.append(cur)
                        es.append(pe)
                        cur = prv
                    vs.append(u)
                    vs.reverse()
                    es.reverse()
                    return vs, es
                nxt.append(b)
        frontier = nxt
    return None


def _enumerate_through_paths(
    adj: dict[int, list[tuple[int, int]]],
    V: frozenset[int],
    u: int,
    v: int,
    ell: int,
    cap: int,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All simple u-v paths with internals in V and length <= ell."""
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    vs = [u]
    es: list[int] = []
    on = {u}

    def rec(a: int) -> None:
        for b, eid in adj[a]:
            if b in on:
                continue
            if b == v:
                out.append((tuple(vs) + (v,), tuple(es) + (eid,)))
                if len(out) > cap:
                    raise CapacityError(f"candidate path enumeration exceeded {cap}")
                continue
            if b in V and len(es) + 1 < ell:
                on.add(b)
                vs.append(b)
                es.append(eid)
                rec(b)
                on.discard(b)
                vs.pop()
                es.pop()

    if ell >= 1:
        rec(u)
    return out


ORACLE_VERTEX_CAP = 128
ORACLE_ELL_CAP = 10
ORACLE_CANDIDATE_CAP = 10_000


def _route_matching_oracle(
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
    adj = g.adjacency()
    cands = [
        _enumerate_through_paths(adj, V, u, v, ell, ORACLE_CANDIDATE_CAP)
        for u, v in batch.pairs
    ]
    if any(not c for c in cands):
        stuck = tuple(p for p, c in zip(batch.pairs, cands) if not c)
        return RouteFailure(stuck, 1, "matching_oracle", "pair has no candidate path")
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
        return RouteFailure(tuple(batch.pairs), 1, "matching_oracle",
                            "no edge-disjoint system of representatives exists")
    paths = tuple(Path(chosen[i][0], chosen[i][1]) for i in range(len(batch.pairs)))
    return RoutedPaths(paths, V, ell)


def route_pairs(
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
    times, and every attempt but the last stops at its first stuck pair.
    matching_oracle: exact backtracking over enumerated candidates (small
    inputs only).  Raises ValueError for ``ell`` or ``retries`` below 1 and
    for a pair endpoint or through-set id that is not a live vertex of g.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if retries < 1:
        raise ValueError("retries must be at least 1")
    for w in (w for pair in batch.pairs for w in pair):
        if w not in g.vertices:
            raise ValueError(f"pair endpoint {w} is not a vertex of the graph")
    Vset = frozenset(V)
    if not Vset <= g.vertices:
        raise ValueError(f"through-set id {min(Vset - g.vertices)} is not a vertex of the graph")
    if strategy == "matching_oracle":
        return _route_matching_oracle(g, batch, Vset, ell)
    if strategy != "greedy":
        raise ValueError(f"unknown strategy {strategy!r}")

    adj = g.adjacency()
    to: dict[int, dict[int, int]] = {}
    through: dict[int, list[tuple[int, int]]] = {}
    rng = random.Random(rng_seed)
    k = len(batch.pairs)
    for attempt in range(1, retries + 1):
        order = list(range(k))
        rng.shuffle(order)
        # only the last attempt's stuck list is reported, so an earlier
        # attempt is abandoned at its first stuck pair
        final = attempt == retries
        used: set[int] = set()
        found: dict[int, tuple[list[int], list[int]]] = {}
        stuck: list[int] = []
        for idx in order:
            u, v = batch.pairs[idx]
            res = _shortest_through_path(adj, to, through, used, Vset, u, v, ell)
            if res is None:
                stuck.append(idx)
                if not final:
                    break
                continue
            found[idx] = res
            used.update(res[1])
        if not stuck:
            paths = tuple(Path(tuple(found[i][0]), tuple(found[i][1])) for i in range(k))
            return RoutedPaths(paths, Vset, ell)
    return RouteFailure(
        tuple(batch.pairs[i] for i in sorted(stuck)),
        retries,
        "greedy",
        "dead end after retries",
    )


# -- template and skeleton --------------------------------------------------------


@dataclass(frozen=True)
class TemplateResult:
    graph: Graph
    through_set: frozenset[int]


def _unrank_pair(idx: int, n: int) -> tuple[int, int]:
    # idx-th pair (u, v), u < v, lexicographic; row u starts at u(n-1) - u(u-1)/2
    lo, hi = 0, n - 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * (n - 1) - mid * (mid - 1) // 2 <= idx:
            lo = mid
        else:
            hi = mid - 1
    u = lo
    start = u * (n - 1) - u * (u - 1) // 2
    return u, u + 1 + (idx - start)


def _sample_gnp_pairs(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    total = n * (n - 1) // 2
    if p >= 1:
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    if p <= 0 or total == 0:
        return []
    out: list[tuple[int, int]] = []
    logq = math.log1p(-p)
    idx = -1
    while True:
        r = rng.random()
        idx += 1 + int(math.log(max(1.0 - r, 1e-300)) / logq)
        if idx >= total:
            break
        out.append(_unrank_pair(idx, n))
    return out


def make_template(n: int, p_template: float, rng_seed: int) -> TemplateResult:
    """Seeded G(n, p) whose designated through-set is the first ceil(n/6) ids.

    The paper caps the template's degree at 2^8 log^5 n, which is above
    n - 1 for every n up to ``MAX_VERTICES``, so no draw is ever rejected.
    """
    if n < 2:
        raise ValueError("template needs n >= 2")
    pairs = _sample_gnp_pairs(n, p_template, random.Random(rng_seed))
    return TemplateResult(Graph.from_edges(n, pairs), frozenset(range(math.ceil(n / 6))))


@dataclass
class Skeleton:
    """Sparse subgraph with a declared through-V path-length contract."""

    subgraph: Graph
    template: Graph
    through_set: frozenset[int]
    ell_route: int
    ell_template: int
    replacements: dict[tuple[int, int], Path] = field(repr=False, default_factory=dict)
    dropped_template_edges: int = 0

    @property
    def ell_serve(self) -> int:
        return self.ell_template * self.ell_route

    def serve(
        self, batch: PairBatch, *, rng_seed: int = 0, retries: int = 8
    ) -> Union[RoutedPaths, RouteFailure]:
        """Route a batch: template paths, edge substitution, shortcutting."""
        routed = route_pairs(
            self.template, batch, self.through_set, self.ell_template,
            rng_seed=rng_seed, retries=retries,
        )
        if isinstance(routed, RouteFailure):
            return routed
        host_paths: list[Path] = []
        for tpath in routed.paths:
            walk_vs = [tpath.vertices[0]]
            walk_es: list[int] = []
            for a, b in zip(tpath.vertices, tpath.vertices[1:]):
                rep = self.replacements[(min(a, b), max(a, b))]
                if rep.vertices[0] == a:
                    walk_vs.extend(rep.vertices[1:])
                    walk_es.extend(rep.edge_ids)
                else:
                    walk_vs.extend(reversed(rep.vertices[:-1]))
                    walk_es.extend(reversed(rep.edge_ids))
            leftover, _ = _excise_walk(walk_vs, walk_es)
            if leftover is None:
                raise RuntimeError(f"served walk for {tpath.ends} closed on itself")
            host_paths.append(leftover)
        return RoutedPaths(tuple(host_paths), self.through_set, self.ell_serve)


@dataclass(frozen=True)
class SkeletonFailure:
    routing: RouteFailure
    template_edges: int
    reason: str = "template edge routing failed"


def build_skeleton(
    g: Graph,
    V: Iterable[int],
    *,
    ell_route: int,
    template_p: float,
    rng_seed: int = 0,
    retries: int = 8,
) -> Union[Skeleton, SkeletonFailure]:
    """Route a random template's edges into g as edge-disjoint through-V paths.

    The skeleton is the union of the replacement paths; its routing contract
    is re-testable by serving random batches.  Template edges that cannot
    be routed are shed and the skeleton is built on the routable remainder;
    only an empty remainder fails, as a first-class result carrying the
    stuck pairs.
    """
    verts = g.vertex_list()
    n = len(verts)
    if n < 2:
        raise ValueError("skeleton needs at least 2 vertices")
    tmpl = make_template(n, template_p, rng_seed)
    tmpl_pairs = [tmpl.graph.endpoints(eid) for eid in tmpl.graph.edge_id_list()]
    mapped = [(verts[u], verts[v]) for u, v in tmpl_pairs]
    Vset = frozenset(V)
    deg = tmpl.graph.degrees()
    t_template = max(deg.values()) if deg else 1
    batch = PairBatch.from_pairs(mapped, t=max(1, t_template))
    adj = g.adjacency()
    to: dict[int, dict[int, int]] = {}
    through: dict[int, list[tuple[int, int]]] = {}
    dropped = 0
    pass_idx = 0
    congestion_passes = 0
    while True:
        routed = route_pairs(
            g, batch, Vset, ell_route, rng_seed=rng_seed + pass_idx, retries=retries
        )
        if isinstance(routed, RoutedPaths):
            break
        # shed only pairs with no solo through-V path; the rest is congestion
        stuck = set(routed.stuck)
        shed = {
            pr for pr in stuck
            if _shortest_through_path(
                adj, to, through, set(), Vset, pr[0], pr[1], ell_route
            ) is None
        }
        if not shed:
            congestion_passes += 1
            if congestion_passes <= retries:
                pass_idx += 1
                continue
            shed = stuck
        keep = [pr for pr in batch.pairs if pr not in shed]
        dropped += len(batch.pairs) - len(keep)
        if not keep:
            return SkeletonFailure(routed, len(mapped))
        batch = PairBatch.from_pairs(keep, t=max(1, t_template))
        pass_idx += 1
    template = Graph.from_edges(g.host_n, list(batch.pairs)).subview(vertices=g.vertices)
    replacements = {
        (min(u, v), max(u, v)): path for (u, v), path in zip(batch.pairs, routed.paths)
    }
    edge_union: set[int] = set()
    for path in routed.paths:
        edge_union.update(path.edge_ids)
    return Skeleton(
        subgraph=g.subview(edge_ids=edge_union),
        template=template,
        through_set=Vset,
        ell_route=ell_route,
        ell_template=max(4, math.ceil(math.log2(max(n, 2)) ** 2 / 4)),
        replacements=replacements,
        dropped_template_edges=dropped,
    )
