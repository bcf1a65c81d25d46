"""Edge-disjoint routing through designated vertex sets.

Batches of vertex pairs are connected by edge-disjoint paths whose internal
vertices lie in a through-set V and whose length is at most ell.  The
greedy router takes shortest paths in a seeded order and retries with fresh
orders; the matching oracle backtracks over every candidate path and so
also proves that no routing exists, on small inputs only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .expansion import CapacityError
from .graph import Graph, Path


@dataclass(frozen=True)
class PairBatch:
    """Unordered vertex pairs, none degenerate."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.pairs:
            if u == v:
                raise ValueError(f"pair ({u}, {v}) is degenerate")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "PairBatch":
        """Pairs, smaller end first."""
        return cls(tuple((min(u, v), max(u, v)) for u, v in pairs))


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
    nbrs: dict[int, list[int]],
    eids: dict[int, list[int]],
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
    last level.  nbrs and eids are the graph's ``arrays()``.  ``to`` caches
    each target's {neighbour: edge id} map for the searches that share the
    arrays; ``through`` caches each expanded vertex's (neighbour, edge id)
    pairs filtered to V, in neighbour order, for the searches that share
    the arrays and V.
    """
    to_v = to.get(v)
    if to_v is None:
        to_v = to[v] = dict(zip(nbrs[v], eids[v]))
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
                inner = through[a] = [(b, eid) for b, eid in zip(nbrs[a], eids[a]) if b in V]
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
    nbrs: dict[int, list[int]],
    eids: dict[int, list[int]],
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
        for b, eid in zip(nbrs[a], eids[a]):
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
    nbrs, eids = g.arrays()
    cands = [
        _enumerate_through_paths(nbrs, eids, V, u, v, ell, ORACLE_CANDIDATE_CAP)
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


# greedy attempts per batch, each in a fresh seeded order
ROUTE_RETRIES = 8


def route_pairs(
    g: Graph,
    batch: PairBatch,
    V: Iterable[int],
    ell: int,
    strategy: str = "greedy",
    *,
    rng_seed: int = 0,
) -> Union[RoutedPaths, RouteFailure]:
    """Connect every pair by edge-disjoint paths internally through V.

    greedy: pairs are processed in a seeded random order, each taking the
    shortest through-V path of length <= ell in the graph minus edges already
    used; the whole batch is retried with fresh orders up to
    ``ROUTE_RETRIES`` times, and every attempt but the last stops at its
    first stuck pair.
    matching_oracle: exact backtracking over enumerated candidates (small
    inputs only).  Raises ValueError for ``ell`` below 1 and for a pair
    endpoint or through-set id that is not a live vertex of g.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
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

    nbrs, eids = g.arrays()
    to: dict[int, dict[int, int]] = {}
    through: dict[int, list[tuple[int, int]]] = {}
    rng = random.Random(rng_seed)
    k = len(batch.pairs)
    for attempt in range(1, ROUTE_RETRIES + 1):
        order = list(range(k))
        rng.shuffle(order)
        # only the last attempt's stuck list is reported, so an earlier
        # attempt is abandoned at its first stuck pair
        final = attempt == ROUTE_RETRIES
        used: set[int] = set()
        found: dict[int, tuple[list[int], list[int]]] = {}
        stuck: list[int] = []
        for idx in order:
            u, v = batch.pairs[idx]
            res = _shortest_through_path(nbrs, eids, to, through, used, Vset, u, v, ell)
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
        ROUTE_RETRIES,
        "greedy",
        "dead end after retries",
    )
