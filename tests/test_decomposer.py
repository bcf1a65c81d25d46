"""Tests for recursive almost-decomposition and randomized edge splitting."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycledecomp import decomposer
from cycledecomp.decomposer import (
    SPLIT_RETRY_CAP,
    AlmostDecomposeResult,
    SplitFailure,
    almost_decompose_into_expanders,
    split_expander_edges,
    split_target_params,
)
from cycledecomp.expansion import ExpanderParams, certify_expander
from cycledecomp.graph import Graph, validate_decomposition
from cycledecomp.pathscycles import peel_long_cycles
from cycledecomp.pipeline import PipelineConfig, decompose_logstar

from helpers import (
    ENGINEERING_PARAMS,
    complete_graph,
    cycle_graph,
    paper_params,
    random_gnp,
    reference_almost_decompose_into_expanders,
    scattered_subview,
)


def gnp(n: int, p: float, seed: int) -> Graph:
    return random_gnp(random.Random(seed), n, p)


def k5_bridge_k5() -> Graph:
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
    edges.append((4, 5))
    return Graph.from_edges(10, edges)


def repartitions_exactly(g: Graph, r: AlmostDecomposeResult) -> bool:
    seen: list[int] = list(r.removed)
    for part in r.parts:
        seen.extend(part.edge_ids)
    return len(seen) == g.m and set(seen) == set(g.edge_ids)


class TestAlmostDecompose:
    def test_certified_expander_is_single_part(self):
        g = complete_graph(6)
        p = ExpanderParams(1, 1)
        assert certify_expander(g, p, mode="exhaustive").is_expander
        r = almost_decompose_into_expanders(g, p)
        assert len(r.parts) == 1
        assert r.parts[0].edge_ids == g.edge_ids
        assert r.parts[0].vertices == g.vertices
        assert r.removed == frozenset()
        assert r.certified == (True,)

    def test_two_disjoint_triangles_split_apart(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        r = almost_decompose_into_expanders(g, ExpanderParams(0.1, 0))
        assert sorted(sorted(pt.vertices) for pt in r.parts) == [[0, 1, 2], [3, 4, 5]]
        assert all(pt.m == 3 for pt in r.parts)
        assert r.removed == frozenset()

    def test_two_cliques_with_bridge_trace(self):
        # eps/denominator in (1/5, 1/4] makes one clique's vertex set the
        # violation while keeping all thresholds inside the 6-vertex side at 1
        g = k5_bridge_k5()
        p = ExpanderParams(epsilon=0.22, s=0, denominator="const", denominator_const=1.0)
        r = almost_decompose_into_expanders(g, p)
        got = sorted((sorted(pt.vertices), pt.m) for pt in r.parts)
        assert got == [([0, 1, 2, 3, 4, 5], 11), ([5, 6, 7, 8, 9], 10)]
        assert r.removed == frozenset()
        assert repartitions_exactly(g, r)
        for pt in r.parts:
            assert certify_expander(pt, p, mode="exhaustive").is_expander

    def test_empty_and_tiny_graphs(self):
        r = almost_decompose_into_expanders(Graph.from_edges(0, []), ExpanderParams(0.5, 0))
        assert r.parts == () and r.removed == frozenset()
        r = almost_decompose_into_expanders(Graph.from_edges(1, []), ExpanderParams(0.5, 0))
        assert len(r.parts) == 1 and r.parts[0].n == 1

    def test_edgeless_graph_becomes_singleton_parts(self):
        g = Graph.from_edges(4, [])
        r = almost_decompose_into_expanders(g, ExpanderParams(0.5, 1))
        assert len(r.parts) == 4
        assert all(pt.n == 1 and pt.m == 0 for pt in r.parts)
        assert r.removed == frozenset()

    def test_parts_under_cap_recertify(self):
        p = ExpanderParams(0.6, 0.5, denominator="const", denominator_const=2.0)
        for seed in range(8):
            g = gnp(12, 0.25, seed)
            r = almost_decompose_into_expanders(g, p)
            assert repartitions_exactly(g, r)
            for pt in r.parts:
                if pt.n >= 1:
                    assert certify_expander(pt, p, mode="exhaustive").is_expander

    def test_removed_bound_and_part_order_bound(self):
        p = ExpanderParams(0.6, 0.5, denominator="const", denominator_const=2.0)
        for seed in range(12):
            g = gnp(14, 0.3, 100 + seed)
            r = almost_decompose_into_expanders(g, p)
            assert sum(pt.n for pt in r.parts) <= 2 * g.n
            if g.n >= 2:
                assert len(r.removed) <= 4 * p.s * g.n * math.log2(g.n)

    @given(
        n=st.integers(2, 14),
        p_edge=st.floats(0.1, 0.9),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_exactness_and_s_zero_full(self, n, p_edge, seed):
        g = gnp(n, p_edge, seed)
        p = ExpanderParams(0.3, 0)
        r = almost_decompose_into_expanders(g, p)
        assert repartitions_exactly(g, r)
        assert r.removed == frozenset()
        assert sum(pt.n for pt in r.parts) <= 2 * g.n
        assert r.max_depth <= g.n

    def test_connectivity_regime_parts_are_components(self, monkeypatch):
        # a 25-cycle (over the cap), a triangle, an edge and an isolated vertex
        edges = [(i, (i + 1) % 25) for i in range(25)]
        edges += [(25, 26), (26, 27), (25, 27), (28, 29)]
        g = Graph.from_edges(31, edges)
        p = ExpanderParams(2**-5, 0)
        fast = almost_decompose_into_expanders(g, p, cap=20)
        assert sorted(pt.vertex_list() for pt in fast.parts) == g.components()
        # connected means expander here, so even the 25-cycle is certified
        assert fast.certified == (True,) * len(fast.parts)
        assert max(pt.n for pt in fast.parts) > 20 and repartitions_exactly(g, fast)

        # the full searches, with the component shortcut switched off, agree
        # on the parts; only the exhaustive pass then vouches, under the cap
        monkeypatch.setattr(ExpanderParams, "connectivity_only", lambda self, n: False)
        slow = almost_decompose_into_expanders(g, p, cap=20)
        assert [pt.fingerprint() for pt in slow.parts] == [pt.fingerprint() for pt in fast.parts]
        assert slow.removed == fast.removed
        assert slow.certified == tuple(pt.n <= 20 for pt in slow.parts)

    def test_component_parts_equal_induced_reference(self):
        # disjoint G(k, 0.6) blocks on shuffled ids, as hosts and as
        # subviews with gaps in the vertex and edge ids
        p = ExpanderParams(2**-5, 0)
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randrange(8, 60)
            ids = rng.sample(range(n), n)
            edges = []
            for start in range(0, n, 6):
                block = ids[start:start + rng.randrange(1, 7)]
                edges += [(min(a, b), max(a, b)) for a, b in itertools.combinations(block, 2)
                          if rng.random() < 0.6]
            host = Graph.from_edges(n, edges)
            view = host.subview(
                vertices=[v for v in host.vertex_list() if rng.random() < 0.8],
                edge_ids=[e for e in host.edge_id_list() if rng.random() < 0.8],
            )
            for g in (host, view):
                r = almost_decompose_into_expanders(g, p)
                ref = [g.subview(vertices=c) for c in g.components()]
                assert len(ref) > 1
                assert [(pt.vertices, pt.edge_ids) for pt in r.parts] == [
                    (h.vertices, h.edge_ids) for h in ref
                ]

    def test_deterministic_across_runs(self):
        g = gnp(13, 0.3, 5)
        p = ExpanderParams(0.6, 0.5, denominator="const", denominator_const=2.0)
        a = almost_decompose_into_expanders(g, p)
        b = almost_decompose_into_expanders(g, p)
        assert [pt.fingerprint() for pt in a.parts] == [pt.fingerprint() for pt in b.parts]
        assert a.removed == b.removed


def split_signature(r: AlmostDecomposeResult):
    return [(pt.vertices, pt.edge_ids) for pt in r.parts], r.removed, r.certified, r.max_depth


def several_components() -> Graph:
    # a 25-cycle, a triangle, an edge and an isolated vertex
    edges = [(i, (i + 1) % 25) for i in range(25)]
    edges += [(25, 26), (26, 27), (25, 27), (28, 29)]
    return Graph.from_edges(31, edges)


def unordered_signature(r: AlmostDecomposeResult):
    parts = sorted(
        (pt.vertex_list(), sorted(pt.edge_ids), cert) for pt, cert in zip(r.parts, r.certified)
    )
    return parts, r.removed


class TestSplitMatchesReference:
    """The split that emits components at once in the connectivity-only
    regime, and singletons at once when every set violates, against the
    split that pushes them back and asks both certifiers
    (``helpers.reference_almost_decompose_into_expanders``).  Outside the
    every-set-violates regime: the same parts in the same order, the same
    removed edges, certified flags and depth.  Under the ``paper``
    parameters, inside it: the same parts, removed edges and certified
    flags, in any order."""

    def check(self, g: Graph) -> None:
        for p in (
            ENGINEERING_PARAMS,
            ExpanderParams(1.0, 0.0, "const", 1.0),  # not connectivity-only
        ):
            got = almost_decompose_into_expanders(g, p, cap=10, seed=3)
            want = reference_almost_decompose_into_expanders(g, p, cap=10, seed=3)
            assert split_signature(got) == split_signature(want), (g, p)
        p = paper_params(g.n)
        got = almost_decompose_into_expanders(g, p, cap=10, seed=3)
        want = reference_almost_decompose_into_expanders(g, p, cap=10, seed=3)
        assert unordered_signature(got) == unordered_signature(want), g

    def test_plain_graphs(self):
        rng = random.Random(20261019)
        for _ in range(60):
            self.check(scattered_subview(rng))
        self.check(several_components())
        self.check(Graph.from_edges(5, []))

    def test_peel_residuals(self):
        rng = random.Random(1019)
        live = 0
        for _ in range(60):
            g = scattered_subview(rng)
            _, residual = peel_long_cycles(g, rng.randint(3, 6))
            live += residual._adj is not None  # carries the peel's arrays
            self.check(residual)
        assert live >= 40

    def test_certifiers_asked_only_outside_the_connectivity_regime(self, monkeypatch):
        calls = []
        real = decomposer.certify_expander

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(decomposer, "certify_expander", counting)
        g = several_components()
        r = almost_decompose_into_expanders(g, ENGINEERING_PARAMS)
        assert len(r.parts) == 4 and calls == []
        r = almost_decompose_into_expanders(g, paper_params(g.n))
        assert len(r.parts) == g.n and len(r.removed) == g.m and calls == []
        almost_decompose_into_expanders(g, ExpanderParams(1.0, 0.0, "const", 1.0))
        assert calls

    def test_paper_pipeline_asks_no_certifier(self, monkeypatch):
        calls = []
        monkeypatch.setattr(decomposer, "certify_expander", lambda *a, **k: calls.append(a))
        g = gnp(512, 0.5, 0)
        dec, report = decompose_logstar(g, PipelineConfig.paper())
        assert validate_decomposition(g, dec).ok
        assert report.iterations and calls == []


class TestSplitExpanderEdges:
    def test_k1_identity(self):
        g = complete_graph(8)
        res = split_expander_edges(g, ExpanderParams(1, 1), 1, 7)
        assert len(res.parts) == 1
        assert res.parts[0].edge_ids == g.edge_ids
        assert res.parts[0].vertices == g.vertices
        assert res.attempts == 1

    def test_k8_two_way_engineering(self):
        g = complete_graph(8)
        res = split_expander_edges(g, ExpanderParams(1, 1), 2, 0)
        assert res.attempts == 1  # observed with seed 0; spec allows up to 5
        assert sorted(pt.m for pt in res.parts) == [10, 18]
        assert sum(pt.m for pt in res.parts) == g.m
        target = split_target_params(ExpanderParams(1, 1), 2, g.n)
        assert target.epsilon == pytest.approx(0.25)
        assert target.s == pytest.approx(1.0 / 48.0)
        for v in res.verdicts:
            assert v is not None and v.is_expander and v.certified
            assert v.params == target

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_edge_counts_partition_for_all_k(self, k):
        g = gnp(20, 0.4, 3)
        res = split_expander_edges(g, ExpanderParams(1, 1), k, 11, check="none")
        assert sum(pt.m for pt in res.parts) == g.m
        all_ids: set[int] = set()
        for pt in res.parts:
            assert pt.vertices == g.vertices
            assert not (all_ids & pt.edge_ids)
            all_ids |= pt.edge_ids
        assert all_ids == set(g.edge_ids)

    def test_same_seed_bit_identical(self):
        g = gnp(16, 0.5, 9)
        p = ExpanderParams(1, 1)
        a = split_expander_edges(g, p, 3, 42, check="none")
        b = split_expander_edges(g, p, 3, 42, check="none")
        assert [pt.edge_id_list() for pt in a.parts] == [pt.edge_id_list() for pt in b.parts]

    def test_retry_cap_exhaustion_reports_witness(self):
        # a single edge split two ways always leaves one empty part, which
        # can never pass verification
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(SplitFailure) as exc:
            split_expander_edges(g, ExpanderParams(0.5, 1), 2, 0)
        assert exc.value.attempts == SPLIT_RETRY_CAP
        assert exc.value.failing_part.m == 0
        assert not exc.value.verdict.is_expander
        assert exc.value.verdict.violation is not None

    def test_empty_graph_splits_trivially(self):
        g = Graph.from_edges(3, [])
        res = split_expander_edges(g, ExpanderParams(0.5, 1), 4, 0)
        assert len(res.parts) == 4
        assert all(pt.m == 0 for pt in res.parts)

    def test_target_params_formula(self):
        t = split_target_params(ExpanderParams(0.5, 2), 4, 256)
        assert t.epsilon == pytest.approx(0.125)
        assert t.s == pytest.approx(math.sqrt(1.0) / (32 * 8))

    def test_rejects_bad_inputs(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError):
            split_expander_edges(g, ExpanderParams(1, 1), 0, 0)
        with pytest.raises(ValueError):
            split_expander_edges(g, ExpanderParams(1, 1), 2, 0, check="sometimes")

    def test_cycle_graphs_accepted_with_zero_budget_targets(self):
        # s=0 keeps the relaxed budget at zero, so connected parts pass
        g = cycle_graph(30)
        res = split_expander_edges(g, ExpanderParams(0.5, 0), 1, 0)
        assert res.attempts == 1
