"""Tests for the decomposition drivers: expander, density round, log-star."""

import itertools
import random
from dataclasses import fields

import pytest

from cycledecomp import decomposer, graph, pathscycles, pipeline
from cycledecomp.bench import gen_gallai_bipartite, gen_gnp
from cycledecomp.graph import (
    Decomposition,
    Graph,
    decomposition_to_json,
    validate_decomposition,
)
from cycledecomp.pipeline import (
    PART_COUNTERS,
    PipelineConfig,
    decompose_expander,
    decompose_logstar,
    density_step,
    log_star,
)
from cycledecomp.pathscycles import find_long_cycle_dfs, peel_long_cycles

from helpers import (
    complete_graph,
    cycle_graph,
    exact_min_pieces,
    path_graph,
    random_gnp,
    reference_adjacency,
    reference_density_step,
    scattered_subview,
    star_graph,
    zipped_arrays,
)
from test_golden import INSTANCES


def gnp(n: int, p: float, seed: int) -> Graph:
    return random_gnp(random.Random(seed), n, p)


def ten_triangles() -> Graph:
    edges = []
    for k in range(10):
        b = 3 * k
        edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
    return Graph.from_edges(30, edges)


def padded_complete(k: int, n: int) -> Graph:
    """K_k on the first k of n vertices; the rest are isolated."""
    return Graph.from_edges(n, list(itertools.combinations(range(k), 2)))


def three_dense_blocks() -> Graph:
    edges = []
    for k in range(3):
        block = gnp(30, 0.5, k)
        edges += [(30 * k + a, 30 * k + b) for a, b in block.edge_table]
    return Graph.from_edges(90, edges)


CFG = PipelineConfig.engineering()


class TestLogStar:
    def test_small_values(self):
        assert [log_star(n) for n in (1, 2, 4, 16)] == [0, 1, 2, 3]

    def test_tower_boundary(self):
        assert log_star(65536) == 4
        assert log_star(65537) == 5

    def test_monotone(self):
        vals = [log_star(n) for n in range(1, 200)]
        assert vals == sorted(vals)


class TestPipelineConfig:
    def test_engineering_preset(self):
        cfg = PipelineConfig.engineering(seed=5)
        assert (cfg.preset, cfg.rng_seed) == ("engineering", 5)
        assert PipelineConfig.paper(seed=5) == PipelineConfig("paper", 5)

    def test_config_is_a_preset_and_a_seed(self):
        assert [f.name for f in fields(PipelineConfig)] == ["preset", "rng_seed"]

    def test_unknown_preset_rejected(self):
        # a guard, not an assert: it must hold under python -O too
        with pytest.raises(ValueError, match="unknown preset"):
            PipelineConfig("fast")
        with pytest.raises(ValueError, match="unknown preset"):
            PipelineConfig("Paper", 1)


def spy(monkeypatch, module, name: str) -> list:
    """Record the graph of every call to module.name, which still runs."""
    seen = []
    real = getattr(module, name)

    def recording(h, *args, **kwargs):
        seen.append(h)
        return real(h, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return seen


class TestPaperNeverReachesClosures:
    @pytest.mark.parametrize("name", sorted(INSTANCES) + ["disconnected"])
    def test_split_removes_every_edge(self, name, monkeypatch):
        """Under ``paper`` every round passes its whole peel residue on, as
        the split that removed every edge did, and no part is decomposed or
        counted."""
        g = three_dense_blocks() if name == "disconnected" else INSTANCES[name]()
        entered = spy(monkeypatch, pipeline, "decompose_expander")
        rounds = []
        step = pipeline.density_step

        def spy_step(h, cfg):
            got = step(h, cfg)
            rounds.append((h, got))
            return got

        monkeypatch.setattr(pipeline, "density_step", spy_step)
        dec, _ = decompose_logstar(g, PipelineConfig.paper())
        assert validate_decomposition(g, dec).ok
        assert rounds and not entered
        for h, (cycles, leftover, rep) in rounds:
            _, residual = peel_long_cycles(h, rep["min_len"])
            assert leftover.edge_ids == residual.edge_ids
            assert rep["parts"] == 0 and "removed_edges" not in rep


class TestNoSplitOnThePipelinePath:
    @pytest.mark.parametrize("preset", ["engineering", "paper"])
    @pytest.mark.parametrize("name", sorted(INSTANCES) + ["gallai1_10000"])
    def test_neither_preset_splits_or_certifies(self, name, preset, monkeypatch):
        g = gen_gallai_bipartite(1, 10_000) if name == "gallai1_10000" else INSTANCES[name]()
        splits = spy(monkeypatch, decomposer, "almost_decompose_into_expanders")
        certified = spy(monkeypatch, decomposer, "certify_expander")
        entered = spy(monkeypatch, pipeline, "decompose_expander")
        dec, rr = decompose_logstar(g, PipelineConfig(preset))
        assert validate_decomposition(g, dec).ok and rr.iterations
        assert splits == [] and certified == []
        assert bool(entered) is (preset == "engineering")


class TestRoundMatchesReference:
    """The round against the one that ran the expander split on the peel
    residue with each preset's old parameters
    (``helpers.reference_density_step``): the same cycles, leftover edges
    and report, but for its wall seconds and the split's own counts: no
    ``removed_edges`` (0 under ``engineering``), and ``parts`` 0 under
    ``paper``, which splits nothing."""

    @staticmethod
    def signature(got):
        cycles, leftover, rep = got
        rep = {k: v for k, v in rep.items() if k != "seconds"}
        return [(c.vertices, c.edge_ids) for c in cycles], leftover.edge_id_list(), rep

    def check(self, g: Graph) -> None:
        for cfg in (CFG, PipelineConfig.paper()):
            cycles, leftover, rep = self.signature(reference_density_step(g, cfg))
            assert rep.pop("removed_edges") == 0 or cfg.preset == "paper"
            if cfg.preset == "paper":
                rep["parts"] = 0
            want = cycles, leftover, rep
            assert self.signature(density_step(g, cfg)) == want, (g, cfg.preset)

    def test_random_graphs(self):
        rng = random.Random(20261019)
        for _ in range(60):
            self.check(scattered_subview(rng))
        for seed in range(5):
            self.check(gnp(50, 0.3, seed))

    def test_disconnected_isolated_and_complete(self):
        for g in (ten_triangles(), three_dense_blocks(), padded_complete(32, 40),
                  Graph.from_edges(5, []), complete_graph(64)):
            self.check(g)

    def test_peel_residuals(self):
        rng = random.Random(1019)
        for _ in range(40):
            _, residual = peel_long_cycles(scattered_subview(rng), rng.randint(3, 6))
            self.check(residual)
        _, residual = peel_long_cycles(three_dense_blocks(), 20)
        assert len(residual.components()) > 1
        self.check(residual)


def as_decomposition(g: Graph, stage: pipeline.Stage) -> Decomposition:
    return Decomposition.from_parts(g, stage.cycles, stage.singles, stats=stage.stats)


def peel_calls(monkeypatch):
    """Record the length floor and the result of each peel the pipeline makes."""
    lens, results = [], []
    peel = pipeline.peel_long_cycles

    def spy(h, min_len):
        lens.append(min_len)
        results.append(peel(h, min_len))
        return results[-1]

    monkeypatch.setattr(pipeline, "peel_long_cycles", spy)
    return lens, results


class TestDecomposeExpander:
    def test_triangle(self):
        g = cycle_graph(3)
        got = decompose_expander(g, CFG)
        assert validate_decomposition(g, as_decomposition(g, got)).ok
        assert len(got.cycles) == 1 and not got.singles

    def test_complete_32_frozen(self):
        g = complete_graph(32)
        got = decompose_expander(g, CFG)
        assert validate_decomposition(g, as_decomposition(g, got)).ok
        assert (len(got.cycles), len(got.singles)) == (3, 402)
        assert (got.stats["peeled_cycles"], got.stats["short_cycles"]) == (3, 0)

    def test_dense_residue_comes_back_whole(self, monkeypatch):
        # K64 peeled at 63 leaves average degree 57: no second peel
        g = complete_graph(64)
        lens, peeled = peel_calls(monkeypatch)
        got = decompose_expander(g, CFG)
        assert lens == [63]
        assert validate_decomposition(g, as_decomposition(g, got)).ok
        assert got.cycles == peeled[0][0]
        assert got.singles == peeled[0][1].edge_id_list()
        assert (len(got.cycles), len(got.singles)) == (3, 1826)
        assert (got.stats["peeled_cycles"], got.stats["short_cycles"]) == (3, 0)

    def test_sparse_residue_is_peeled_again_at_3(self, monkeypatch):
        # G(48, 0.4) peeled at 20 leaves average degree 2.8
        g = gnp(48, 0.4, 9)
        lens, peeled = peel_calls(monkeypatch)
        got = decompose_expander(g, CFG)
        assert lens == [20, 3]
        assert peeled[0][1].avg_degree() <= pipeline.DEGREE_FLOOR
        assert validate_decomposition(g, as_decomposition(g, got)).ok
        rest = g.subview(edge_ids=got.singles)
        assert rest.m == rest.n - len(rest.components())  # a forest
        assert (got.stats["peeled_cycles"], got.stats["short_cycles"]) == (17, 9)
        assert (len(got.cycles), len(got.singles)) == (26, 23)

    def test_every_part_counter_in_every_branch(self):
        # empty, sparse-residue and dense-residue parts
        for g in (Graph.from_edges(5, []), complete_graph(7), complete_graph(32)):
            assert set(PART_COUNTERS) == set(decompose_expander(g, CFG).stats)

    def test_a_part_gives_its_component_s_stage(self):
        """A part is a component or the residue whose edges form one:
        ``decompose_expander`` gives the same cycles, singles and stats on
        a graph with isolated vertices, carrying a finder answer or not, as
        on the component its edges form, and hands back its rest on the
        graph's own vertices."""
        rng = random.Random(7)
        graphs = [padded_complete(32, 40)]
        graphs += [peel_long_cycles(three_dense_blocks(), L)[1] for L in (5, 10, 20)]
        graphs += [scattered_subview(rng) for _ in range(30)]
        padded = 0
        for r in graphs:
            comps = [c for c in r.components() if len(c) > 1]
            for comp in comps:
                part = r.component(comp)
                whole = r if len(comps) == 1 else r.subview(edge_ids=part.edge_ids)
                got, want = decompose_expander(whole, CFG), decompose_expander(part, CFG)
                assert got.cycles == want.cycles
                assert (got.singles, got.stats) == (want.singles, want.stats)
                assert got.rest.vertices == whole.vertices
                padded += whole.n > part.n
        assert padded >= 30

    def test_empty_graph(self):
        g = Graph.from_edges(5, [])
        got = decompose_expander(g, CFG)
        assert not got.cycles and not got.singles

    def test_determinism(self):
        g = gnp(48, 0.4, 9)
        a = decompose_expander(g, CFG)
        b = decompose_expander(g, CFG)
        assert decomposition_to_json(as_decomposition(g, a), g) == decomposition_to_json(
            as_decomposition(g, b), g
        )

    def test_seed_changes_outcome_shape_not_validity(self):
        g = gnp(48, 0.4, 9)
        for seed in (1, 2, 3):
            got = decompose_expander(g, PipelineConfig.engineering(seed=seed))
            assert validate_decomposition(g, as_decomposition(g, got)).ok


def round_as_decomposition(g: Graph, cycles, leftover: Graph) -> Decomposition:
    return Decomposition.from_parts(g, cycles, leftover.edge_ids)


class TestDecomposeGeneral:
    """One density round on general graphs: peel, split into parts, decompose each."""

    def test_ten_disjoint_triangles(self):
        g = ten_triangles()
        cycles, leftover, rep = density_step(g, CFG)
        assert validate_decomposition(g, round_as_decomposition(g, cycles, leftover)).ok
        assert len(cycles) == 10 and rep["cycles_peeled"] == 10
        assert leftover.m == 0
        # the peel leaves no edges, so the split never runs
        assert rep["parts"] == 0

    def test_edgeless(self, monkeypatch):
        def no_split(*args, **kwargs):
            raise AssertionError("split called on an edgeless graph")

        monkeypatch.setattr(pipeline, "almost_decompose_into_expanders", no_split)
        g = Graph.from_edges(5, [])
        cycles, leftover, rep = density_step(g, CFG)
        assert not cycles and leftover.m == 0
        assert rep["parts"] == 0

    def test_random_dense_frozen(self):
        g = gnp(256, 0.3, 11)
        cycles, leftover, rep = density_step(g, CFG)
        assert validate_decomposition(g, round_as_decomposition(g, cycles, leftover)).ok
        assert (len(cycles), leftover.m) == (150, 145)
        assert (rep["cycles_peeled"], rep["cycles_general"]) == (112, 38)

    def test_partition_accounting(self):
        g = gnp(60, 0.2, 4)
        cycles, leftover, rep = density_step(g, CFG)
        assert validate_decomposition(g, round_as_decomposition(g, cycles, leftover)).ok
        assert (len(cycles), leftover.m) == (22, 32)
        covered = set(leftover.edge_ids)
        for c in cycles:
            covered.update(c.edge_ids)
        assert covered == set(g.edge_ids)
        assert rep["edges_in"] == rep["cycle_edges"] + rep["edges_left"] == g.m


class TestDensityStep:
    def test_single_cycle_consumed_whole(self):
        g = cycle_graph(100)
        cycles, leftover, rep = density_step(g, CFG)
        assert rep["d_in"] == 2.0
        assert rep["min_len"] == 3
        assert rep["cycles_peeled"] == 1
        assert rep["cycles_general"] == 0
        assert leftover.m == 0 and rep["edges_left"] == 0
        assert len(cycles) == 1 and len(cycles[0].edge_ids) == 100

    def test_degree_never_increases(self):
        for seed in range(5):
            g = gnp(50, 0.3, seed)
            if g.m == 0:
                continue
            _, leftover, rep = density_step(g, CFG)
            assert rep["d_out"] <= rep["d_in"] + 1e-9
            assert leftover.avg_degree() == rep["d_out"]

    def test_leftover_disjoint_from_cycles(self):
        g = gnp(40, 0.4, 2)
        cycles, leftover, _ = density_step(g, CFG)
        used = set()
        for c in cycles:
            for eid in c.edge_ids:
                assert eid not in used
                used.add(eid)
        assert used.isdisjoint(leftover.edge_ids)
        assert used | set(leftover.edge_ids) == set(g.edge_ids)

    def test_leftover_of_one_part_carries_its_arrays_and_answer(self, monkeypatch):
        """When one component of the residue has edges, that part is the
        residue itself and its rest is the leftover, with the peel's arrays
        and answer; the leftover of several parts holds neither."""
        parts = []
        real = pipeline.decompose_expander

        def recording(h, cfg):
            parts.append((h, real(h, cfg)))
            return parts[-1][1]

        monkeypatch.setattr(pipeline, "decompose_expander", recording)
        rng = random.Random(25)
        carried = lone = several = 0
        for g in [scattered_subview(rng) for _ in range(60)] + [three_dense_blocks()]:
            for cfg in (CFG, PipelineConfig.paper()):
                parts.clear()
                _, leftover, rep = density_step(g, cfg)
                if len(parts) > 1:
                    # the residues of several parts are not held
                    assert leftover._adj is None and leftover.found is None
                    several += 1
                else:
                    assert leftover._adj is not None or leftover.m == 0
                    assert zipped_arrays(leftover) == reference_adjacency(leftover)
                if len(parts) == 1:
                    (h, got), = parts
                    assert h.vertices == g.vertices and leftover is got.rest
                    lone += 1
                if leftover.found is not None:
                    bare = Graph(g.host_n, g.edge_table, g.vertices, leftover.edge_ids)
                    assert leftover.found == (find_long_cycle_dfs(bare),)
                    carried += 1
                assert leftover.vertices == g.vertices
        assert carried >= 40 and lone >= 10 and several >= 10


def disjoint_triangles_and_complete(k: int) -> Graph:
    """40 disjoint triangles and a K_k on the vertices after them."""
    edges = [(3 * t + a, 3 * t + b) for t in range(40) for a, b in ((0, 1), (1, 2), (0, 2))]
    edges += [(120 + a, 120 + b) for a, b in itertools.combinations(range(k), 2)]
    return Graph.from_edges(120 + k, edges)


def finder_keys(monkeypatch) -> list:
    """Record the live edge set of every finder call."""
    keys = []
    finder = pathscycles.find_long_cycle_dfs

    def keyed(view, **kwargs):
        keys.append(frozenset(view.edge_ids))
        return finder(view, **kwargs)

    monkeypatch.setattr(pathscycles, "find_long_cycle_dfs", keyed)
    return keys


class TestFinderOncePerEdgeSet:
    """Each peel starts from the answer the previous peel left on the same
    live edges, so no live edge set reaches the finder twice in a run."""

    @pytest.mark.parametrize("preset", pipeline.PRESETS)
    @pytest.mark.parametrize("make", [
        lambda: complete_graph(20),
        lambda: complete_graph(24),
        lambda: gnp(64, 0.5, 3),
        lambda: gen_gallai_bipartite(1, 64),
        # average degree 2.8: no round runs, so the finder is never called
        lambda: disjoint_triangles_and_complete(12),
        three_dense_blocks,
    ])
    def test_no_edge_set_twice(self, monkeypatch, preset, make):
        keys = finder_keys(monkeypatch)
        decompose_logstar(make(), PipelineConfig(preset, 1))
        assert len(set(keys)) == len(keys)

    def test_no_edge_set_with_an_edge_twice_among_many_parts(self, monkeypatch):
        keys = finder_keys(monkeypatch)
        rng = random.Random(5)
        graphs = [disjoint_triangles_and_complete(24)]
        graphs += [scattered_subview(rng) for _ in range(100)]
        for g in graphs:
            for preset in pipeline.PRESETS:
                keys.clear()
                decompose_logstar(g, PipelineConfig(preset, 1))
                # a part used up ends with a call on no edges, which returns
                # at the finder's first line: every used-up triangle of the
                # first graph makes one
                called = [k for k in keys if k]
                assert len(set(called)) == len(called)

    def test_complete_graphs_pinned(self, monkeypatch):
        # perfbench's complete workload: 32 calls when each peel began
        # with a finder call
        keys = finder_keys(monkeypatch)
        for k in (128, 144):
            decompose_logstar(complete_graph(k), CFG)
        assert len(keys) == 24

    def test_complete_graphs_build_arrays_once(self, monkeypatch):
        # each round starts from the arrays the last peel left, so over all
        # rounds each graph builds them once, and the peels number 30
        built = spy(monkeypatch, graph, "_neighbour_lists")
        lens, _ = peel_calls(monkeypatch)
        for k in (128, 144):
            built.clear()
            decompose_logstar(complete_graph(k), CFG)
            assert len(built) == 1
        assert len(lens) == 30


class TestRoundLedger:
    def test_one_fingerprint_per_run(self, monkeypatch):
        computed = []
        fingerprint = Graph.fingerprint

        def counted(h):
            if h._fp is None:
                computed.append(h)
            return fingerprint(h)

        monkeypatch.setattr(Graph, "fingerprint", counted)
        g = INSTANCES["k64"]()
        _, rr = decompose_logstar(g, CFG)
        assert sum(it["parts"] for it in rr.iterations) >= 2
        assert computed == [g]

    @pytest.mark.parametrize("preset", ["engineering", "paper"])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_every_edge_and_cycle_accounted(self, name, preset, monkeypatch):
        finished = []
        finish = pipeline._finish_or_singles

        def spy(h):
            got = finish(h)
            finished.append(len(got[0]))
            return got

        monkeypatch.setattr(pipeline, "_finish_or_singles", spy)
        g = INSTANCES[name]()
        dec, rr = decompose_logstar(g, PipelineConfig(preset))
        assert rr.iterations
        for it in rr.iterations:
            assert it["edges_in"] == it["cycle_edges"] + it["edges_left"]
            assert set(PART_COUNTERS) <= set(it)
        for a, b in zip(rr.iterations, rr.iterations[1:]):
            assert b["edges_in"] == a["edges_left"]
        rounds = sum(it["cycles_peeled"] + it["cycles_general"] for it in rr.iterations)
        assert rounds == len(dec.cycles) - finished[0]


class TestDecomposeLogstar:
    def test_tree_all_singles(self):
        g = path_graph(10)
        d, rr = decompose_logstar(g, CFG)
        assert not d.cycles
        assert len(d.single_edges) == 9
        assert d.pieces == 9
        assert rr.iterations == ()

    def test_star_all_singles(self):
        g = star_graph(5)
        d, _ = decompose_logstar(g, CFG)
        assert (len(d.cycles), len(d.single_edges)) == (0, 5)

    def test_complete_7_no_singles(self):
        g = complete_graph(7)
        d, rr = decompose_logstar(g, CFG)
        assert validate_decomposition(g, d).ok
        assert not d.single_edges
        assert len(d.cycles) >= 3
        traj = rr.degree_trajectory()
        assert traj[0] == 6.0 and traj[-1] == 0.0

    def test_eulerian_finisher_fires(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        d, rr = decompose_logstar(g, CFG)
        assert d.stats["eulerian_finished"] is True
        assert (len(d.cycles), len(d.single_edges)) == (2, 0)
        assert rr.iterations == ()

    def test_eulerian_union_of_cycles_no_singles(self):
        pairs = set()
        for s in (1, 3, 7):
            for i in range(20):
                a, b = i, (i + s) % 20
                pairs.add((min(a, b), max(a, b)))
        g = Graph.from_edges(20, sorted(pairs))
        assert all(deg % 2 == 0 for deg in g.degrees().values())
        d, _ = decompose_logstar(g, CFG)
        assert validate_decomposition(g, d).ok
        assert not d.single_edges

    def test_iteration_cap_respected(self):
        g = gnp(128, 0.3, 3)
        d, rr = decompose_logstar(g, CFG)
        assert validate_decomposition(g, d).ok
        assert len(rr.iterations) <= log_star(128) + 2
        traj = rr.degree_trajectory()
        assert all(b <= a + 1e-9 for a, b in zip(traj, traj[1:]))

    def test_determinism_byte_identical(self):
        g = complete_graph(7)
        a, _ = decompose_logstar(g, CFG)
        b, _ = decompose_logstar(g, CFG)
        assert decomposition_to_json(a, g) == decomposition_to_json(b, g)

    def test_stats_record_preset_and_seed(self):
        g = cycle_graph(5)
        d, _ = decompose_logstar(g, PipelineConfig.engineering(seed=17))
        assert d.stats["preset"] == "engineering"
        assert d.stats["seed"] == 17


# -- against the exact optimum -------------------------------------------------


def brute_min_pieces(g: Graph) -> int:
    """Fewest pieces over every family of edge-disjoint cycles of g, with
    the edges no cycle covers as singles."""
    cycles = []
    verts = g.vertex_list()
    for k in range(3, len(verts) + 1):
        for vs in itertools.permutations(verts, k):
            # each cycle once: smallest vertex first, one direction
            if vs[0] != min(vs) or vs[1] > vs[-1]:
                continue
            pairs = list(zip(vs, vs[1:] + vs[:1]))
            if all(g.has_edge(a, b) for a, b in pairs):
                cycles.append(frozenset(g.edge_id(a, b) for a, b in pairs))
    best = g.m

    def extend(start: int, used: frozenset, count: int) -> None:
        nonlocal best
        best = min(best, count + g.m - len(used))
        for i in range(start, len(cycles)):
            if used.isdisjoint(cycles[i]):
                extend(i + 1, used | cycles[i], count + 1)

    extend(0, frozenset(), 0)
    return best


def test_exact_optimum_matches_a_search_over_cycle_families():
    """On every labelled graph on 5 vertices."""
    slots = list(itertools.combinations(range(5), 2))
    for mask in range(1 << len(slots)):
        g = Graph.from_edges(5, [e for i, e in enumerate(slots) if mask >> i & 1])
        assert exact_min_pieces(g) == brute_min_pieces(g), mask


def c5_plus_chord() -> Graph:
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])


# name -> (instances, total optimum, each preset's total pieces when pinned)
OPTIMUM_SETS = {
    "gnp7_half": (lambda: [gen_gnp(7, 0.5, s) for s in range(40)], 163,
                  {"engineering": 388, "paper": 388}),
    "gnp8_half": (lambda: [gen_gnp(8, 0.5, s) for s in range(30)], 150,
                  {"engineering": 333, "paper": 338}),
    "gnp10_0.3": (lambda: [gen_gnp(10, 0.3, s) for s in range(30)], 180,
                  {"engineering": 409, "paper": 409}),
    "c5_plus_chord": (lambda: [c5_plus_chord()], 2, {"engineering": 6, "paper": 6}),
}


@pytest.mark.parametrize("name", sorted(OPTIMUM_SETS))
def test_presets_between_the_optimum_and_their_pinned_totals(name):
    """No preset beats the optimum, and none has got worse since pinning."""
    make, optimum, pinned = OPTIMUM_SETS[name]
    graphs = make()
    assert sum(exact_min_pieces(g) for g in graphs) == optimum
    for preset, most in pinned.items():
        total = sum(decompose_logstar(g, PipelineConfig(preset))[0].pieces for g in graphs)
        assert optimum <= total <= most, preset
