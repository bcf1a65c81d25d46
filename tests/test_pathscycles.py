"""Tests for path/cycle decomposition, long-cycle search, and peeling."""

import itertools
import math
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycledecomp import pathscycles, pipeline
from cycledecomp.graph import Graph
from cycledecomp.pathscycles import (
    eulerian_cycle_decompose,
    find_long_cycle_dfs,
    peel_long_cycles,
    well_spread_path_cycle_decompose,
)

from helpers import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnp,
    _reference_back_edge_pass,
    _reference_longest_back_edge_cycle,
    reference_adjacency,
    reference_component_walks,
    reference_components,
    reference_find_long_cycle_dfs,
    reference_peel_long_cycles,
    scattered_subview,
    star_graph,
    zipped_arrays,
)


def gnp(n: int, p: float, seed: int) -> Graph:
    return random_gnp(random.Random(seed), n, p)


def covered_ids(result) -> list[int]:
    ids: list[int] = []
    for piece in list(result.paths) + list(result.cycles):
        ids.extend(piece.edge_ids)
    return ids


def random_even_graph(n: int, k_cycles: int, seed: int) -> Graph:
    """Symmetric difference of random simple cycles; all degrees even."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    for _ in range(k_cycles):
        size = rng.randint(3, max(3, n - 1))
        verts = rng.sample(range(n), min(size, n))
        if len(verts) < 3:
            continue
        for i in range(len(verts)):
            u, v = verts[i], verts[(i + 1) % len(verts)]
            e = (min(u, v), max(u, v))
            edges.symmetric_difference_update({e})
    return Graph.from_edges(n, sorted(edges))


class TestWellSpread:
    def test_path_graph_is_one_path(self):
        r = well_spread_path_cycle_decompose(path_graph(3))
        assert len(r.paths) == 1 and r.cycles == ()
        assert r.paths[0].vertices == (0, 1, 2)

    def test_triangle_is_one_cycle(self):
        r = well_spread_path_cycle_decompose(cycle_graph(3))
        assert r.paths == () and len(r.cycles) == 1
        assert set(r.cycles[0].vertices) == {0, 1, 2}

    def test_star_two_paths_bounded_multiplicity(self):
        g = star_graph(3)
        r = well_spread_path_cycle_decompose(g)
        assert len(r.paths) == 2 and r.cycles == ()
        mult = r.endpoint_multiplicity()
        assert all(m <= 2 for m in mult.values())
        assert sorted(covered_ids(r)) == g.edge_id_list()

    def test_paths_only_splits_triangle(self):
        r = well_spread_path_cycle_decompose(cycle_graph(3), mode="paths_only")
        assert len(r.paths) == 2 and r.cycles == ()
        assert all(m <= 2 for m in r.endpoint_multiplicity().values())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            well_spread_path_cycle_decompose(path_graph(2), mode="both")

    @given(n=st.integers(2, 24), p=st.floats(0.1, 0.9), seed=st.integers(0, 9999))
    @settings(max_examples=80, deadline=None)
    def test_euler_mode_invariants(self, n, p, seed):
        g = gnp(n, p, seed)
        r = well_spread_path_cycle_decompose(g)
        assert sorted(covered_ids(r)) == g.edge_id_list()
        for piece in list(r.paths) + list(r.cycles):
            piece.check(g)
        deg = g.degrees()
        n_odd = sum(1 for v in g.vertices if deg[v] % 2 == 1)
        assert len(r.paths) == n_odd // 2
        assert len(r.paths) <= g.n
        mult = r.endpoint_multiplicity()
        assert all(m <= 2 for m in mult.values())

    @given(n=st.integers(3, 18), p=st.floats(0.2, 0.8), seed=st.integers(0, 9999))
    @settings(max_examples=60, deadline=None)
    def test_paths_only_invariants(self, n, p, seed):
        g = gnp(n, p, seed)
        r = well_spread_path_cycle_decompose(g, mode="paths_only")
        assert sorted(covered_ids(r)) == g.edge_id_list()
        assert all(m <= 2 for m in r.endpoint_multiplicity().values())
        for piece in list(r.paths) + list(r.cycles):
            piece.check(g)


class TestFindLongCycle:
    @pytest.mark.parametrize("n", [3, 5, 8, 12, 30])
    def test_cycle_graph_returns_whole_cycle(self, n):
        c = find_long_cycle_dfs(cycle_graph(n))
        assert c is not None and len(c.edge_ids) == n

    def test_tree_returns_none(self):
        g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        assert find_long_cycle_dfs(g) is None
        assert find_long_cycle_dfs(path_graph(10)) is None

    def test_k4_returns_cycle(self):
        c = find_long_cycle_dfs(complete_graph(4))
        assert c is not None and len(c.edge_ids) >= 3
        c.check(complete_graph(4))

    def test_empty_and_tiny(self):
        assert find_long_cycle_dfs(Graph.from_edges(0, [])) is None
        assert find_long_cycle_dfs(Graph.from_edges(2, [(0, 1)])) is None

    @given(n=st.integers(3, 24), p=st.floats(0.15, 0.9), seed=st.integers(0, 9999))
    @settings(max_examples=80, deadline=None)
    def test_returned_cycle_is_valid(self, n, p, seed):
        g = gnp(n, p, seed)
        c = find_long_cycle_dfs(g)
        if c is not None:
            c.check(g)
            assert len(set(c.vertices)) == len(c.vertices) >= 3


class TestPeelLongCycles:
    def test_c10_min5_peels_whole_cycle(self):
        cycles, residual = peel_long_cycles(cycle_graph(10), 5)
        assert [len(c.edge_ids) for c in cycles] == [10]
        assert residual.m == 0

    def test_c10_min11_peels_nothing(self):
        cycles, residual = peel_long_cycles(cycle_graph(10), 11)
        assert cycles == []
        assert residual.m == 10
        assert residual.edge_ids == cycle_graph(10).edge_ids

    def test_bowtie_two_triangles(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
        cycles, residual = peel_long_cycles(g, 3)
        assert sorted(sorted(c.vertices) for c in cycles) == [[0, 1, 2], [0, 3, 4]]
        assert residual.m == 0

    def test_min_len_validated(self):
        with pytest.raises(ValueError):
            peel_long_cycles(cycle_graph(5), 2)

    @pytest.mark.parametrize("g,min_len,sweeps,peeled", [
        # the finder takes the whole cycle, one sweep finds nothing, and the
        # finder's next miss ends the peel without the sweep that repeated it
        (cycle_graph(10), 5, 1, 1),
        # two sweeps, the second empty, then the finder misses
        (complete_graph(6), 3, 2, 2),
        # fewer vertices than min_len: no search at all
        (cycle_graph(10), 11, 0, 0),
    ])
    def test_no_sweep_repeats_an_empty_one(self, monkeypatch, g, min_len, sweeps, peeled):
        calls = []
        sweep = pathscycles._back_edge_pass

        def counting(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(pathscycles, "_back_edge_pass", counting)
        cycles, residual = peel_long_cycles(g, min_len)
        assert (len(calls), len(cycles)) == (sweeps, peeled)
        want, ref_residual = reference_peel_long_cycles(g, min_len)
        assert [c.vertices for c in cycles] == [c.vertices for c in want]
        assert residual.edge_ids == ref_residual.edge_ids

    @pytest.mark.parametrize("g,min_len,hits", [
        # the finder takes the whole cycle, then misses on the empty rest
        (cycle_graph(10), 5, [True, False]),
        (complete_graph(6), 3, [True, False]),
        (gnp(40, 0.5, 2), 20, [True, False]),
        # fewer vertices than min_len: the finder is never called
        (cycle_graph(10), 11, []),
    ])
    def test_every_finder_call_goes_through_the_module_attribute(
        self, monkeypatch, g, min_len, hits
    ):
        # perfbench's tracer wraps pathscycles.find_long_cycle_dfs to count
        # and time the peel's finder calls (dfs_calls, dfs_s), so the peel
        # must make each one through that attribute
        calls = []
        finder = pathscycles.find_long_cycle_dfs

        def counting(view, **kwargs):
            cyc = finder(view, **kwargs)
            calls.append(cyc is not None and len(cyc.edge_ids) >= min_len)
            return cyc

        monkeypatch.setattr(pathscycles, "find_long_cycle_dfs", counting)
        cycles, _ = peel_long_cycles(g, min_len)
        assert calls == hits
        want, _ = reference_peel_long_cycles(g, min_len)
        assert [c.vertices for c in cycles] == [c.vertices for c in want]

    @given(n=st.integers(3, 20), p=st.floats(0.2, 0.9), seed=st.integers(0, 9999),
           min_len=st.integers(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_peel_invariants(self, n, p, seed, min_len):
        g = gnp(n, p, seed)
        cycles, residual = peel_long_cycles(g, min_len)
        seen: list[int] = list(residual.edge_ids)
        for c in cycles:
            c.check(g)
            assert len(c.edge_ids) >= min_len
            seen.extend(c.edge_ids)
        assert sorted(seen) == g.edge_id_list()
        again, residual2 = peel_long_cycles(residual, min_len)
        assert again == []
        assert residual2.edge_ids == residual.edge_ids

    @given(n=st.integers(1, 24), p=st.floats(0.05, 0.9), seed=st.integers(0, 9999))
    @settings(max_examples=60, deadline=None)
    def test_length_three_peel_leaves_a_forest(self, n, p, seed):
        _, residual = peel_long_cycles(gnp(n, p, seed), 3)
        assert residual.m == residual.n - len(residual.components())

    def test_dense_graph_consumes_most_edges(self):
        g = complete_graph(12)
        cycles, residual = peel_long_cycles(g, 3)
        assert sum(len(c.edge_ids) for c in cycles) >= g.m - g.n


def peel_signature(g: Graph, peel, min_len: int):
    cycles, residual = peel(g, min_len)
    return [(c.vertices, c.edge_ids) for c in cycles], residual


class TestPeelMatchesReference:
    """The peel on one compacted live adjacency against the peel that skips
    consumed edges through a set and rebuilds a subview per finder round
    (``helpers.reference_peel_long_cycles``): same cycles in the same order,
    same residual, and residual arrays equal to an adjacency built from the
    definition."""

    def check(self, g: Graph, min_len: int) -> int:
        got, residual = peel_signature(g, peel_long_cycles, min_len)
        want, ref_residual = peel_signature(g, reference_peel_long_cycles, min_len)
        assert got == want, (g, min_len)
        assert residual.edge_ids == ref_residual.edge_ids
        assert residual.vertices == g.vertices
        assert zipped_arrays(residual) == reference_adjacency(residual)
        return len(got)

    def test_gnp_at_every_min_len(self):
        rng = random.Random(20261018)
        cases = with_cycles = 0
        while cases < 1500:
            n = rng.randint(3, 60)
            g = gnp(n, rng.uniform(0.05, 0.9), rng.randrange(10**6))
            assert find_long_cycle_dfs(g) == reference_find_long_cycle_dfs(g)
            for min_len in range(3, n + 1):
                with_cycles += self.check(g, min_len) > 0
                cases += 1
        assert with_cycles >= 300

    def test_subviews_with_gaps_isolated_vertices_and_components(self):
        rng = random.Random(6)
        several = small_part = 0
        for _ in range(600):
            g = scattered_subview(rng)
            several += len([c for c in g.components() if len(c) > 1]) > 1
            small_part += 16 * g.n < g.host_n
            assert find_long_cycle_dfs(g) == reference_find_long_cycle_dfs(g)
            for min_len in sorted({3, rng.randint(3, 8), rng.randint(3, max(3, g.n))}):
                self.check(g, min_len)
        assert several >= 100 and small_part >= 200


class CountingLists(dict):
    """A vertex -> list table that counts its lookups."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


class TestSweepExit:
    """A back-edge sweep returns once fewer than min_len vertices are
    unfinished, since a cycle is only taken from a stack of min_len
    unfinished vertices.  The lookup counts pin where it stops; the
    reference sweep, which finishes every vertex, pins what it leaves."""

    @pytest.mark.parametrize("g,min_len,reads", [
        # a sweep that finishes every vertex reads 69, 98, 117, 182, 272
        (complete_graph(12), 11, 59),
        (complete_graph(12), 9, 90),
        (complete_graph(20), 19, 99),
        (complete_graph(20), 17, 166),
        (gnp(30, 0.9, 1), 25, 248),
    ])
    def test_sweep_stops_once_no_cycle_of_the_floor_fits(self, g, min_len, reads):
        nbrs, eids = g.arrays_copy()
        nbrs = CountingLists(nbrs)
        alive = set(g.edge_ids)
        cycles: list = []
        found = pathscycles._back_edge_pass(g, nbrs, eids, alive, min_len, cycles)
        assert nbrs.reads == reads
        ref_alive = set(g.edge_ids)
        ref_cycles: list = []
        ref_found = _reference_back_edge_pass(
            g, reference_adjacency(g), ref_alive, min_len, ref_cycles)
        assert (found, cycles, alive) == (ref_found, ref_cycles, ref_alive)
        assert found > 0
        live = {v: list(zip(nb, eids[v])) for v, nb in nbrs.items()}
        assert live == reference_adjacency(g.subview(edge_ids=ref_alive))


class TestViewsCarryingArrays:
    """A view that carries the peel's arrays, and a peel residual, answer
    components and degrees from those arrays as the definition does on the
    same vertex and edge sets."""

    def test_components_and_degrees_equal_a_plain_graph(self):
        rng = random.Random(1019)
        isolated = 0
        for _ in range(300):
            g = scattered_subview(rng)
            alive = {e for e in g.edge_ids if rng.random() < 0.7}
            plain = Graph(g.host_n, g.edge_table, g.vertices, frozenset(alive))
            view = Graph(g.host_n, g.edge_table, g.vertices, frozenset(alive), plain.arrays())
            _, residual = peel_long_cycles(g, 3)
            assert residual._adj is not None
            fresh = Graph(g.host_n, g.edge_table, g.vertices, residual.edge_ids)
            for carrier, ref in ((view, plain), (residual, fresh)):
                assert carrier.components() == reference_components(ref)
                adj = reference_adjacency(ref)
                assert carrier.degrees() == {v: len(lst) for v, lst in adj.items()}
            isolated += any(len(c) == 1 for c in reference_components(plain))
        assert isolated >= 200


def bare(g: Graph) -> Graph:
    """g's vertices and live edges, with nothing cached or carried."""
    return Graph(g.host_n, g.edge_table, g.vertices, frozenset(g.edge_ids))


def counted_finder(monkeypatch) -> list:
    """Record the live edge set of every finder call the peel makes."""
    calls = []
    finder = pathscycles.find_long_cycle_dfs

    def counting(view, **kwargs):
        calls.append(frozenset(view.edge_ids))
        return finder(view, **kwargs)

    monkeypatch.setattr(pathscycles, "find_long_cycle_dfs", counting)
    return calls


class TestCarriedAnswer:
    """A peel leaves the finder's answer on its final live edges with the
    residual, and a peel of a graph carrying one takes it in place of its
    first finder call.  Chains of peels as the pipeline makes them (the
    round floor, then each part's floor, then 3, where a lone part is the
    residual itself) match fresh reference peels at every link."""

    def link(self, h: Graph, min_len: int):
        want, ref_residual = peel_signature(bare(h), reference_peel_long_cycles, min_len)
        got, residual = peel_signature(h, peel_long_cycles, min_len)
        assert got == want, (h, min_len)
        assert residual.edge_ids == ref_residual.edge_ids
        assert residual.vertices == h.vertices
        if residual.found is not None:
            assert residual.found == (find_long_cycle_dfs(bare(residual)),)
        assert residual.found is not None or h.n < min_len
        return residual

    def test_chains_of_peels_match_fresh_reference_peels(self):
        rng = random.Random(25)
        parts = carried = 0
        for _ in range(300):
            g = scattered_subview(rng)
            residual = self.link(g, max(3, math.ceil(g.avg_degree())))
            comps = [c for c in residual.components() if len(c) > 1]
            for part in [residual] if len(comps) == 1 else map(residual.component, comps):
                parts += 1
                # the residual carries its peel's answer; a component view none
                assert (part.found is not None) is (part is residual)
                carried += part is residual
                touched = sum(1 for d in part.degrees().values() if d)
                rest = self.link(part, max(3, math.ceil(2 * part.m / touched)))
                self.link(rest, 3)
        assert parts >= 300 and 50 <= carried < parts

    def test_a_component_among_several_calls_the_finder(self, monkeypatch):
        g = Graph.from_edges(12, [(6 * k + u, 6 * k + v) for k in range(2)
                                  for u, v in itertools.combinations(range(6), 2)])
        _, residual = peel_long_cycles(g, 6)
        assert residual.found is not None
        comps = [c for c in residual.components() if len(c) > 1]
        assert len(comps) == 2
        calls = counted_finder(monkeypatch)
        for comp in comps:
            part = residual.component(comp)
            assert part.found is None
            self.link(part, 3)
        assert frozenset(residual.component(comps[0]).edge_ids) in calls

    def test_a_lone_part_is_the_residual_and_takes_its_answer(self, monkeypatch):
        # K7 beside three isolated vertices: the round peels at 5 and leaves
        # one part, whose carried answer is a 4-cycle
        g = Graph.from_edges(10, list(itertools.combinations(range(7), 2)))
        peels, entered = [], []
        peel, expand = pipeline.peel_long_cycles, pipeline.decompose_expander

        def peeling(h, min_len):
            peels.append(peel(h, min_len))
            return peels[-1]

        def expanding(h, cfg):
            entered.append(h)
            return expand(h, cfg)

        monkeypatch.setattr(pipeline, "peel_long_cycles", peeling)
        monkeypatch.setattr(pipeline, "decompose_expander", expanding)
        calls = counted_finder(monkeypatch)
        pipeline.density_step(g, pipeline.PipelineConfig.engineering())
        residual = peels[0][1]
        assert len(entered) == 1 and entered[0] is residual
        assert residual.n == 10 and residual.found[0] is not None
        assert peels[1][0][0] == residual.found[0]
        # the round's own peel made the one call on these edges
        assert calls.count(frozenset(residual.edge_ids)) == 1

    def test_an_acyclic_answer_ends_the_peel_at_once(self, monkeypatch):
        _, residual = peel_long_cycles(complete_graph(6), 3)
        assert residual.found == (None,)
        calls = counted_finder(monkeypatch)
        assert peel_long_cycles(residual, 3) == ([], residual)
        assert calls == []

    def test_a_stale_carried_cycle_is_refused(self):
        g = complete_graph(6)
        cyc = find_long_cycle_dfs(g)
        stale = Graph(g.host_n, g.edge_table, g.vertices,
                      g.edge_ids - {cyc.edge_ids[0]}, None, (cyc,))
        with pytest.raises(RuntimeError, match="is not live"):
            peel_long_cycles(stale, 3)


@st.composite
def edge_tables(draw) -> Graph:
    """A graph whose edge table lists its pairs in drawn order, endpoints
    either way round, sometimes as a subview that drops vertices."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
        unique_by=lambda t: (min(t), max(t)), max_size=40))
    g = Graph.from_edges(n, pairs)
    if draw(st.booleans()):
        g = g.subview(vertices=draw(st.sets(st.integers(0, n - 1))))
    return g


def even_part(g: Graph) -> Graph:
    """g with edges at odd vertices dropped, lowest id first, until every
    degree is even."""
    while True:
        deg = g.degrees()
        drop = next((e for e in g.edge_id_list()
                     if any(deg[v] % 2 for v in g.edge_table[e])), None)
        if drop is None:
            return g
        g = g.without_edges([drop])


class TestEulerWalksMatchReference:
    """The walk on the component's slice of ``arrays()``, with virtual
    entries spliced into copies of the odd vertices' lists, against the
    walk on an edge table and a sorted tuple adjacency
    (``helpers.reference_component_walks``): the same walks, vertex for
    vertex and edge for edge."""

    @given(g=edge_tables())
    @settings(max_examples=300, deadline=None)
    def test_paired_walks(self, g):
        for comp in g.components():
            assert (pathscycles._component_walks(g, comp)
                    == reference_component_walks(g, comp, pair_odd=True))

    @given(g=edge_tables())
    @settings(max_examples=200, deadline=None)
    def test_closed_walks_and_odd_rejection(self, g):
        # on an all-even graph the paired walk is the closed circuit, and
        # the finisher excises the same cycles from it in the same order
        even = even_part(g)
        want = []
        for comp in even.components():
            walks = reference_component_walks(even, comp, pair_odd=False)
            assert pathscycles._component_walks(even, comp) == walks
            want.extend(c for vs, es in walks for c in pathscycles._excise_walk(vs, es)[1])
        assert eulerian_cycle_decompose(even) == want
        odd = sorted(v for v, d in g.degrees().items() if d % 2)
        if odd:
            message = re.escape(f"odd-degree vertices present: {odd[:5]}")
            with pytest.raises(ValueError, match=message):
                eulerian_cycle_decompose(g)

    @given(g=edge_tables())
    @settings(max_examples=300, deadline=None)
    def test_back_edge_fallback(self, g):
        assert (pathscycles._longest_back_edge_cycle(g)
                == _reference_longest_back_edge_cycle(g, reference_adjacency(g)))

    @pytest.mark.parametrize("g,length,reads", [
        (complete_graph(5), 5, 5),
        (complete_graph(14), 14, 14),
        (Graph.from_edges(14, [(u, v) for u in range(14) for v in range(u + 1, 14)
                               if not (u % 2 == 0 and v == u + 1)]), 13, 13),
        (complete_bipartite(3, 4), 6, 6),
        (complete_bipartite(7, 7), 14, 14),
        (complete_bipartite(5, 9), 10, 16),
    ])
    def test_back_edge_fallback_stops_at_a_near_hamiltonian_cycle(self, g, length, reads):
        # K_n, K_14 minus a perfect matching and K_{a,b}: the first descent
        # closes a cycle as long as any the full search finds, so the search
        # returns once at most that many vertices are unfinished (without
        # the exit it reads the lists 2n - 1 times)
        nbrs, eids = g.arrays_copy()
        nbrs = CountingLists(nbrs)
        counted = Graph(g.host_n, g.edge_table, g.vertices, g.edge_ids, (nbrs, eids))
        cyc = pathscycles._longest_back_edge_cycle(counted)
        assert cyc == _reference_longest_back_edge_cycle(g, reference_adjacency(g))
        assert (cyc.length, nbrs.reads) == (length, reads)


class TestManyComponents:
    """Each component costs time in its own size: 10,000 disjoint triangles
    take well under a second, where a pass over the whole graph per
    component took over half a minute."""

    @pytest.fixture(scope="class")
    def triangles(self) -> Graph:
        return Graph.from_edges(30000, [(3 * t + a, 3 * t + b) for t in range(10000)
                                        for a, b in ((0, 1), (1, 2), (0, 2))])

    def test_eulerian_cycle_decompose(self, triangles):
        start = time.perf_counter()
        cycles = eulerian_cycle_decompose(triangles)
        assert time.perf_counter() - start < 5
        assert [c.vertices for c in cycles[:2]] == [(0, 1, 2), (3, 4, 5)] and len(cycles) == 10000

    def test_well_spread_path_cycle_decompose(self, triangles):
        start = time.perf_counter()
        res = well_spread_path_cycle_decompose(triangles)
        assert time.perf_counter() - start < 5
        assert len(res.cycles) == 10000 and res.paths == ()


class TestEulerianDecompose:
    def test_triangle(self):
        assert len(eulerian_cycle_decompose(cycle_graph(3))) == 1

    def test_k5_count_in_known_band(self):
        g = complete_graph(5)
        cycles = eulerian_cycle_decompose(g)
        assert 2 <= len(cycles) <= 3
        assert sorted(e for c in cycles for e in c.edge_ids) == g.edge_id_list()
        for c in cycles:
            c.check(g)

    def test_edgeless(self):
        assert eulerian_cycle_decompose(Graph.from_edges(4, [])) == []

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            eulerian_cycle_decompose(path_graph(3))

    @given(n=st.integers(4, 24), k=st.integers(1, 6), seed=st.integers(0, 9999))
    @settings(max_examples=80, deadline=None)
    def test_exact_partition_on_even_graphs(self, n, k, seed):
        g = random_even_graph(n, k, seed)
        cycles = eulerian_cycle_decompose(g)
        assert sorted(e for c in cycles for e in c.edge_ids) == g.edge_id_list()
        for c in cycles:
            c.check(g)
        if g.m:
            assert len(cycles) <= g.m // 3
