"""Tests for the decomposition drivers: expander, general, density, log-star."""

import math
import random

import pytest

from cycledecomp.expansion import ExpanderParams
from cycledecomp.graph import (
    Graph,
    Path,
    decomposition_to_json,
    validate_decomposition,
)
from cycledecomp.pipeline import (
    PipelineConfig,
    _close_cycle,
    decompose_expander,
    decompose_general,
    decompose_logstar,
    density_step,
    log_star,
)

from helpers import complete_graph, cycle_graph, path_graph, random_gnp, star_graph


def gnp(n: int, p: float, seed: int) -> Graph:
    return random_gnp(random.Random(seed), n, p)


def ten_triangles() -> Graph:
    edges = []
    for k in range(10):
        b = 3 * k
        edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
    return Graph.from_edges(30, edges)


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
        assert cfg.preset == "engineering"
        assert cfg.rng_seed == 5
        assert cfg.expander_peel
        assert cfg.params.epsilon == 2 ** -5

    def test_paper_preset_literal_forms(self):
        cfg = PipelineConfig.paper(4096)
        assert cfg.preset == "paper"
        assert cfg.size_floor == 2 ** 12
        assert not cfg.expander_peel
        assert cfg.skeleton_min_n == 0
        assert cfg.ell_route == math.ceil(math.log2(4096) ** 2)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(params=ExpanderParams(0.5, 0), ell_route=0)
        with pytest.raises(ValueError):
            PipelineConfig(params=ExpanderParams(0.5, 0), template_budget_frac=0)

    def test_template_p_clamped_by_host_budget(self):
        # dense host: paper form wins; starved host: budget clamp wins
        rich = CFG.resolve_template_p(64, 2016)
        poor = CFG.resolve_template_p(64, 30)
        assert 0 < poor < rich <= 1
        total = 64 * 63 / 2
        assert poor * total * CFG.ell_route <= CFG.template_budget_frac * 30 + 1e-9

    def test_template_p_degenerate(self):
        assert CFG.resolve_template_p(1, 10) == 0.0
        assert CFG.resolve_template_p(0, 0) == 0.0


class TestCloseCycle:
    def test_closure_missing_an_end_raises(self):
        # a guard, not an assert: it must hold under python -O too
        g = cycle_graph(6)
        p = Path((0, 1, 2), (g.edge_id(0, 1), g.edge_id(1, 2)))
        q = Path((2, 3, 4), (g.edge_id(2, 3), g.edge_id(3, 4)))
        with pytest.raises(ValueError, match="does not join"):
            _close_cycle(p, q)


class TestDecomposeExpander:
    def test_triangle(self):
        g = cycle_graph(3)
        d = decompose_expander(g, CFG)
        assert validate_decomposition(g, d).ok
        assert len(d.cycles) == 1 and not d.single_edges

    def test_complete_32_frozen(self):
        g = complete_graph(32)
        d = decompose_expander(g, CFG)
        rep = validate_decomposition(g, d)
        assert rep.ok
        assert len(d.cycles) <= 3 * 32
        assert (len(d.cycles), len(d.single_edges)) == (82, 52)
        assert d.stats["skeleton_engaged"] is False
        assert d.stats["peeled_cycles"] == 3

    def test_complete_64_engages_skeletons(self):
        g = complete_graph(64)
        d = decompose_expander(g, CFG)
        assert validate_decomposition(g, d).ok
        st = d.stats
        assert st["skeleton_engaged"] is True
        assert st["skeleton_failures"] == 0
        assert st["skeleton_edges"] > 0
        # closure bookkeeping adds up: every piece is a cycle or a single
        assert len(d.cycles) + len(d.single_edges) == st["pieces"]
        assert (len(d.cycles), len(d.single_edges)) == (303, 187)

    def test_isolated_vertices_do_not_matter(self):
        import itertools

        base = complete_graph(32)
        padded = Graph.from_edges(40, list(itertools.combinations(range(32), 2)))
        a = decompose_expander(base, CFG)
        b = decompose_expander(padded, CFG)
        assert [c.edge_ids for c in a.cycles] == [c.edge_ids for c in b.cycles]
        assert a.single_edges == b.single_edges

    def test_empty_graph(self):
        g = Graph.from_edges(5, [])
        d = decompose_expander(g, CFG)
        assert not d.cycles and not d.single_edges

    def test_determinism(self):
        g = gnp(48, 0.4, 9)
        a = decompose_expander(g, CFG)
        b = decompose_expander(g, CFG)
        assert decomposition_to_json(a, g) == decomposition_to_json(b, g)

    def test_seed_changes_outcome_shape_not_validity(self):
        g = gnp(48, 0.4, 9)
        for seed in (1, 2, 3):
            d = decompose_expander(g, PipelineConfig.engineering(seed=seed))
            assert validate_decomposition(g, d).ok


class TestDecomposeGeneral:
    def test_ten_disjoint_triangles(self):
        g = ten_triangles()
        d = decompose_general(g, CFG)
        assert validate_decomposition(g, d).ok
        assert len(d.cycles) == 10
        assert not d.single_edges

    def test_edgeless(self):
        g = Graph.from_edges(5, [])
        d = decompose_general(g, CFG)
        assert not d.cycles and not d.single_edges
        assert d.stats["parts"] == 0

    def test_random_dense_frozen(self):
        g = gnp(256, 0.3, 11)
        d = decompose_general(g, CFG)
        rep = validate_decomposition(g, d)
        assert rep.ok
        assert len(d.cycles) <= 6 * 256
        assert (len(d.cycles), len(d.single_edges)) == (148, 339)

    def test_partition_accounting(self):
        g = gnp(60, 0.2, 4)
        d = decompose_general(g, CFG)
        assert validate_decomposition(g, d).ok
        covered = set()
        for c in d.cycles:
            covered.update(c.edge_ids)
        covered.update(d.single_edges)
        assert covered == set(g.edge_ids)


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
