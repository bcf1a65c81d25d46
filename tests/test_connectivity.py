"""Edge-disjoint routing through a vertex set."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycledecomp import connectivity
from cycledecomp.connectivity import (
    ROUTE_RETRIES,
    PairBatch,
    RoutedPaths,
    RouteFailure,
    route_pairs,
    _shortest_through_path,
)
from cycledecomp.expansion import CapacityError
from cycledecomp.graph import Graph

from helpers import (
    complete_graph,
    cycle_graph,
    path_graph,
    reference_adjacency,
    reference_route_pairs,
    reference_shortest_through_path,
)


def gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


class TestPairBatch:
    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError) as exc:
            PairBatch(((0, 1), (3, 3)))
        assert str(exc.value) == "pair (3, 3) is degenerate"
        with pytest.raises(ValueError):
            PairBatch.from_pairs([(3, 3)])

    def test_from_pairs_puts_the_smaller_end_first(self):
        b = PairBatch.from_pairs([(2, 0), (0, 1), (0, 3)])
        assert b.pairs == ((0, 2), (0, 1), (0, 3))
        assert PairBatch.from_pairs([]).pairs == ()


class TestShortestThroughPath:
    def test_matches_full_scan_reference(self):
        rng = random.Random(4)
        seen: Counter = Counter()
        for _ in range(600):
            n = rng.randint(2, 30)
            g = gnp(n, rng.choice([0.05, 0.1, 0.2, 0.4, 0.7, 1.0]), rng.randrange(10**6))
            if rng.random() < 0.3:  # vertex ids with gaps
                g = g.subview(vertices=[w for w in g.vertices if rng.random() < 0.8])
            verts = g.vertex_list()
            if len(verts) < 2:
                continue
            adj = reference_adjacency(g)
            nbrs, eids = g.arrays()
            to = {}  # shared by the searches on this graph, as in route_pairs
            live = g.edge_id_list()
            for _ in range(5):
                V = frozenset(w for w in verts if rng.random() < rng.random())
                through = {}  # shared by the searches through this V, as in route_pairs
                for _ in range(4):
                    used = {e for e in live if rng.random() < rng.random() ** 2}
                    u, v = rng.sample(verts, 2)
                    ell = rng.randint(1, 6)
                    warm = bool(through)
                    want = reference_shortest_through_path(adj, used, V, u, v, ell)
                    got = _shortest_through_path(nbrs, eids, to, through, used, V, u, v, ell)
                    assert got == want, (g.fingerprint(), sorted(used), sorted(V), u, v, ell)
                    seen["cases"] += 1
                    seen["search on a filled through-set cache"] += warm
                    seen["adjacent through a used edge"] += dict(adj[u]).get(v, -1) in used
                    seen["v in V"] += v in V
                    seen["ell = 1"] += ell == 1
                    seen["unreachable"] += want is None
                    seen["path of length ell > 1"] += want is not None and 1 < len(want[1]) == ell
                    seen["path of length >= 3"] += want is not None and len(want[1]) >= 3
        assert seen["cases"] >= 10_000
        assert min(seen.values()) >= 100, seen


class TestRoutePairs:
    def test_c8_single_pair(self):
        g = cycle_graph(8)
        b = PairBatch.from_pairs([(0, 4)])
        r = route_pairs(g, b, g.vertices, 4)
        assert isinstance(r, RoutedPaths)
        assert len(r.paths) == 1
        assert len(r.paths[0].edge_ids) == 4
        assert r.validate(g, b) == []

    def test_k4_duplicate_pair(self):
        g = complete_graph(4)
        b = PairBatch(((0, 1), (0, 1)))
        for strategy in ("greedy", "matching_oracle"):
            r = route_pairs(g, b, g.vertices, 2, strategy=strategy)
            assert isinstance(r, RoutedPaths)
            assert r.validate(g, b) == []
            lens = sorted(len(p.edge_ids) for p in r.paths)
            assert lens == [1, 2]

    def test_c4_crossing_batch_infeasible(self):
        # both pairs need 2 of the 4 edges and any two length-2 routes share one
        g = cycle_graph(4)
        b = PairBatch(((0, 2), (1, 3)))
        rg = route_pairs(g, b, g.vertices, 2)
        assert isinstance(rg, RouteFailure)
        assert rg.strategy == "greedy"
        assert rg.attempts == ROUTE_RETRIES
        ro = route_pairs(g, b, g.vertices, 2, strategy="matching_oracle")
        assert isinstance(ro, RouteFailure)
        assert "no edge-disjoint system" in ro.reason

    def test_length_cap_flips_feasibility(self):
        # duplicate pair with one short and one long route: needs ell >= 3
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)])
        b = PairBatch(((0, 2), (0, 2)))
        tight = route_pairs(g, b, g.vertices, 2, strategy="matching_oracle")
        assert isinstance(tight, RouteFailure)
        loose = route_pairs(g, b, g.vertices, 3, strategy="matching_oracle")
        assert isinstance(loose, RoutedPaths)
        assert loose.validate(g, b) == []
        assert sorted(len(p.edge_ids) for p in loose.paths) == [2, 3]

    def test_through_set_restricts_internals(self):
        # path 0-1-2 allowed only when 1 is in the through set
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = PairBatch.from_pairs([(0, 2)])
        ok = route_pairs(g, b, {1}, 2)
        assert isinstance(ok, RoutedPaths)
        bad = route_pairs(g, b, set(), 2)
        assert isinstance(bad, RouteFailure)

    def test_endpoint_outside_through_set(self):
        # single edge is a path through any set
        g = Graph.from_edges(2, [(0, 1)])
        b = PairBatch.from_pairs([(0, 1)])
        r = route_pairs(g, b, set(), 1)
        assert isinstance(r, RoutedPaths)

    def test_oracle_caps(self):
        g = complete_graph(4)
        b = PairBatch.from_pairs([(0, 1)])
        with pytest.raises(CapacityError):
            route_pairs(g, b, g.vertices, 11, strategy="matching_oracle")

    def test_ell_must_be_positive(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            route_pairs(g, PairBatch.from_pairs([(0, 1)]), g.vertices, 0)

    def test_unknown_strategy(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            route_pairs(g, PairBatch.from_pairs([(0, 1)]), g.vertices, 1, strategy="astar")

    @pytest.mark.parametrize("strategy", ["greedy", "matching_oracle"])
    def test_through_id_outside_graph_rejected(self, strategy):
        # a guard, not an assert: it must hold under python -O too
        g = path_graph(3)
        with pytest.raises(ValueError, match="through-set id 7 is not a vertex of the graph"):
            route_pairs(g, PairBatch.from_pairs([(0, 2)]), {1, 7, 9}, 2, strategy=strategy)
        # the pair endpoints are checked first
        with pytest.raises(ValueError, match="pair endpoint 5 is not a vertex of the graph"):
            route_pairs(g, PairBatch.from_pairs([(0, 5)]), {7}, 2, strategy=strategy)

    def test_non_final_attempts_stop_at_first_stuck_pair(self, monkeypatch):
        # no two pair ends are adjacent and V is empty: every pair is stuck
        # in every attempt, so routing every pair each time would search
        # 3 * ROUTE_RETRIES times
        calls = []
        search = connectivity._shortest_through_path

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(connectivity, "_shortest_through_path", counted)
        pairs = ((0, 2), (3, 5), (6, 8))
        r = route_pairs(path_graph(10), PairBatch.from_pairs(pairs), set(), 3)
        assert len(calls) == (ROUTE_RETRIES - 1) + 3
        assert r == RouteFailure(pairs, ROUTE_RETRIES, "greedy", "dead end after retries")

    def test_determinism(self):
        g = gnp(24, 0.3, 4)
        verts = g.vertex_list()
        b = PairBatch.from_pairs([(verts[0], verts[10]), (verts[3], verts[17])])
        r1 = route_pairs(g, b, g.vertices, 6, rng_seed=5)
        r2 = route_pairs(g, b, g.vertices, 6, rng_seed=5)
        assert isinstance(r1, RoutedPaths)
        assert [p.edge_ids for p in r1.paths] == [p.edge_ids for p in r2.paths]

    @given(st.integers(0, 10_000), st.integers(2, 40))
    def test_greedy_never_beats_oracle(self, seed, n_seed):
        # infeasible per oracle implies infeasible per greedy, never the reverse
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        g = gnp(n, 0.5, rng.randint(0, 999))
        verts = g.vertex_list()
        if len(verts) < 4:
            return
        pool = verts[:]
        rng.shuffle(pool)
        b = PairBatch.from_pairs([(pool[0], pool[1]), (pool[2], pool[3])])
        ell = rng.randint(1, 4)
        greedy = route_pairs(g, b, g.vertices, ell, rng_seed=seed)
        oracle = route_pairs(g, b, g.vertices, ell, strategy="matching_oracle")
        if isinstance(greedy, RoutedPaths):
            assert isinstance(oracle, RoutedPaths)
            assert greedy.validate(g, b) == []
        if isinstance(oracle, RoutedPaths):
            assert oracle.validate(g, b) == []


class TestRouterMatchesReference:
    """The greedy router against ``reference_route_pairs``, which routes
    every pair of every attempt with the full-scan search."""

    def test_route_pairs(self):
        rng = random.Random(8)
        seen: Counter = Counter()
        while seen["cases"] < 2000:
            # contended: as many pairs at one vertex as it has edges, in a
            # graph dense enough that some orders route them all and some not
            contended = rng.random() < 0.5
            p = rng.choice([0.4, 0.5] if contended else [0.1, 0.2, 0.4, 0.7, 1.0])
            g = gnp(rng.randint(10 if contended else 2, 30), p, rng.randrange(10**6))
            if rng.random() < 0.3:  # vertex ids with gaps
                g = g.subview(vertices=[w for w in g.vertices if rng.random() < 0.8])
            verts = g.vertex_list()
            if len(verts) < 2:
                continue
            adj = reference_adjacency(g)
            if contended:
                hub = rng.choice(verts)
                ends = rng.sample([w for w in verts if w != hub], max(1, len(adj[hub])))
                pairs = [(hub, w) for w in ends]
                V = frozenset(verts)
                ell = rng.randint(2, 3)
            else:
                pairs = [tuple(rng.sample(verts, 2)) for _ in range(rng.randint(1, 10))]
                V = frozenset(w for w in verts if rng.random() < rng.random())
                ell = rng.randint(1, 6)
            if rng.random() < 0.3:
                pairs.append(rng.choice(pairs))
            batch = PairBatch.from_pairs(pairs)
            seed = rng.randrange(10**6)
            want = reference_route_pairs(g, batch, V, ell, rng_seed=seed, retries=ROUTE_RETRIES)
            got = route_pairs(g, batch, V, ell, rng_seed=seed)
            assert got == want, (g.fingerprint(), batch.pairs, sorted(V), ell, seed)
            seen["cases"] += 1
            seen["duplicate pair"] += len(set(batch.pairs)) < len(batch.pairs)
            seen["pair with no path in the whole graph"] += any(
                reference_shortest_through_path(adj, set(), V, u, v, ell) is None
                for u, v in batch.pairs
            )
            if isinstance(want, RouteFailure):
                seen["failure"] += 1
            elif isinstance(reference_route_pairs(g, batch, V, ell, rng_seed=seed, retries=1),
                            RoutedPaths):
                seen["success on the first attempt"] += 1
            else:
                seen["success after two or more attempts"] += 1
        assert min(seen.values()) >= 100, seen


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_routed_paths_invariants(seed):
    # disjointness, containment, and length cap on every successful routing
    rng = random.Random(seed)
    n = rng.randint(6, 16)
    g = gnp(n, 0.45, rng.randint(0, 999))
    verts = g.vertex_list()
    if len(verts) < 6:
        return
    pool = verts[:]
    rng.shuffle(pool)
    b = PairBatch.from_pairs([(pool[0], pool[1]), (pool[2], pool[3]), (pool[4], pool[5])])
    V = frozenset(v for v in verts if rng.random() < 0.7)
    ell = rng.randint(2, 5)
    r = route_pairs(g, b, V, ell, rng_seed=seed)
    if isinstance(r, RoutedPaths):
        assert r.validate(g, b) == []
        used = set()
        for path in r.paths:
            assert not (used & set(path.edge_ids))
            used |= set(path.edge_ids)
