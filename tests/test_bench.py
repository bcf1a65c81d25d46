"""Tests for the generators, the bipartite lower bound, and the CSV harness."""

import csv
import hashlib
import io
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import cycledecomp.bench as bench
from cycledecomp.bench import (
    BenchFailure,
    bench_scaling,
    gallai_lower_bound,
    gen_eulerian,
    gen_gallai_bipartite,
    gen_gnp,
    gen_regular,
)
from cycledecomp.graph import Decomposition, Graph

from helpers import complete_graph


def rows_of(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def drop_first_edge(g, cfg):
    """A broken pipeline: it drops one edge, so the partition check fails."""
    dec = Decomposition(
        n=g.n, m=g.m, cycles=(), single_edges=tuple(g.edge_id_list()[1:]),
        source="test", stats={},
    )
    return dec, None


class TestGenGnp:
    def test_extremes(self):
        assert gen_gnp(6, 0.0, 1).m == 0
        assert gen_gnp(6, 1.0, 1).m == 15

    def test_determinism(self):
        a, b = gen_gnp(30, 0.3, 7), gen_gnp(30, 0.3, 7)
        assert a.edge_table == b.edge_table
        assert gen_gnp(30, 0.3, 8).edge_table != a.edge_table

    def test_edge_count_within_three_sigma(self):
        n, p, trials = 40, 0.25, 20
        total = n * (n - 1) / 2
        mean = p * total
        sigma = math.sqrt(total * p * (1 - p))
        avg = sum(gen_gnp(n, p, s).m for s in range(trials)) / trials
        assert abs(avg - mean) <= 3 * sigma / math.sqrt(trials)

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            gen_gnp(5, 1.5, 0)


class TestGallaiFamily:
    def test_k1_n12_shape(self):
        g = gen_gallai_bipartite(1, 12)
        assert g.m == 27
        degs = g.degrees()
        assert all(degs[v] == 9 for v in range(3))
        assert all(degs[v] == 3 for v in range(3, 12))

    def test_no_edges_inside_either_side(self):
        g = gen_gallai_bipartite(2, 16)
        for u, v in g.edge_table:
            assert (u < 5) != (v < 5)

    def test_precondition(self):
        with pytest.raises(ValueError):
            gen_gallai_bipartite(1, 3)
        with pytest.raises(ValueError):
            gallai_lower_bound(2, 5)

    def test_lower_bound_frozen_values(self):
        # b + (a*b - b) / (2a), exact rational, rounded up
        assert gallai_lower_bound(1, 12) == 12
        assert gallai_lower_bound(2, 20) == 21
        assert gallai_lower_bound(2, 21) == 23

    def test_lower_bound_matches_fraction_arithmetic(self):
        for k in (1, 2, 5):
            for n in (2 * k + 2, 50, 333):
                a = Fraction(2 * k + 1)
                b = Fraction(n - 2 * k - 1)
                expect = math.ceil(b + (a * b - b) / (2 * a))
                assert gallai_lower_bound(k, n) == expect

    def test_asymptotic_trend(self):
        # bound/n approaches 3/2 - 1/(4k+2) from below as n grows
        k = 1
        n = 10 ** 6
        ratio = gallai_lower_bound(k, n) / n
        assert abs(ratio - (1.5 - 1 / 6)) < 1e-4


class TestGenEulerian:
    @pytest.mark.parametrize("n,p,seed", [(20, 0.3, 0), (40, 0.15, 5), (64, 0.4, 2)])
    def test_all_degrees_even(self, n, p, seed):
        g = gen_eulerian(n, p, seed)
        assert all(d % 2 == 0 for d in g.degrees().values())

    def test_subgraph_of_the_unrepaired_graph(self):
        base = gen_gnp(30, 0.3, 9)
        fixed = gen_eulerian(30, 0.3, 9)
        assert set(fixed.edge_table) <= set(base.edge_table)

    def test_already_eulerian_untouched(self):
        # K_7 has all degrees even; repair must not remove anything
        g = gen_eulerian(7, 1.0, 4)
        assert g.m == 21

    def test_determinism(self):
        a = gen_eulerian(25, 0.25, 11)
        b = gen_eulerian(25, 0.25, 11)
        assert a.edge_table == b.edge_table


class TestGenRegular:
    @pytest.mark.parametrize("n,d", [(10, 3), (24, 4), (50, 6)])
    def test_degrees(self, n, d):
        g = gen_regular(n, d, 1)
        assert all(deg == d for deg in g.degrees().values())
        assert g.m == n * d // 2

    def test_determinism(self):
        assert gen_regular(20, 4, 3).edge_table == gen_regular(20, 4, 3).edge_table

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gen_regular(5, 3, 0)
        with pytest.raises(ValueError):
            gen_regular(4, 4, 0)


class TestBenchScaling:
    def test_empty_sizes_gives_header_only(self):
        text = bench_scaling(sizes=(), seeds=(0,))
        assert text.splitlines() == [",".join(bench.CSV_COLUMNS)]

    def test_unknown_family_rejected_upfront(self):
        with pytest.raises(ValueError):
            bench_scaling(families=("nosuch",), sizes=(16,), seeds=(0,))

    @pytest.mark.parametrize("kw", [
        dict(sizes=(0,)),
        dict(sizes=(16, -2)),
        # rejected before the gallai1 cells run
        dict(families=("gallai1", "gallai5"), sizes=(2048, 8)),
    ])
    def test_sizes_below_one_rejected_upfront(self, kw, monkeypatch):
        monkeypatch.setattr(bench, "_bench_one", lambda *a: pytest.fail("an instance ran"))
        match = "gallai5 needs n >= 12, got n=8" if "families" in kw else "must be at least 1"
        with pytest.raises(ValueError, match=match):
            bench_scaling(**{"families": ("gnp8n",), "seeds": (0,), **kw})

    @pytest.mark.parametrize("kw, what", [
        (dict(families=("gnp8n", "gnp8n")), "family gnp8n"),
        (dict(sizes=(16, 24, 16)), "size 16"),
        (dict(seeds=(0, 1, 0)), "seed 0"),
    ])
    def test_repeated_family_size_or_seed_rejected_upfront(self, kw, what, monkeypatch):
        monkeypatch.setattr(bench, "_bench_one", lambda *a: pytest.fail("an instance ran"))
        with pytest.raises(ValueError, match=f"{what} given more than once"):
            bench_scaling(**{"families": ("gnp8n",), "sizes": (16,), "seeds": (0,), **kw})

    def test_small_grid_rows_and_bounds(self, tmp_path):
        out = tmp_path / "r.csv"
        text = bench_scaling(
            families=("gnp8n", "gallai1", "eulerian"),
            sizes=(16, 24),
            seeds=(0, 1),
            out=str(out),
        )
        assert out.read_text() == text
        rows = rows_of(text)
        assert len(rows) == 12
        keys = [(r["family"], int(r["n"]), int(r["seed"])) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert int(r["pieces"]) == int(r["cycles"]) + int(r["singles"])
            if r["family"] == "gallai1":
                assert int(r["pieces"]) >= int(r["gallai_bound"])
            else:
                assert r["gallai_bound"] == ""
            if r["family"] == "eulerian":
                assert int(r["singles"]) == 0

    def test_deterministic_modulo_runtime(self):
        def strip(text):
            return [row[:-1] for row in csv.reader(io.StringIO(text))]

        kw = dict(families=("gnp8n", "gallai2"), sizes=(20,), seeds=(0, 3))
        assert strip(bench_scaling(**kw)) == strip(bench_scaling(**kw))

    def test_grid_rows_pinned(self):
        # sha256 of the CSV without its runtime column
        text = bench_scaling(families=("eulerian", "gallai1", "gnp8n"), sizes=(32, 64),
                             seeds=(0, 1))
        rows = "".join(",".join(row[:-1]) + "\n" for row in csv.reader(io.StringIO(text)))
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "4812e5b3c6f26b5b768d7bffe5b8ccb3f8ba21c06212e3dced53cc18c40f5e3a")

    def test_validity_failure_aborts_with_repro(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "decompose_logstar", drop_first_edge)
        out = tmp_path / "r.csv"
        with pytest.raises(BenchFailure) as exc:
            bench_scaling(families=("gnp8n",), sizes=(12,), seeds=(0,), out=str(out))
        assert str(exc.value) == (
            "gnp8n n=12 seed=0: fingerprint mismatch: test vs 2dfdb87d85e8d4fe; "
            "1 live edges uncovered, e.g. [0]")
        path = Path(exc.value.repro_path)
        assert path == tmp_path / "bench_failure_gnp8n_12_0.edges"
        body = path.read_bytes()
        assert body.startswith(b"# family=gnp8n n=12 seed=0\n")
        assert hashlib.sha256(body).hexdigest() == (
            "61e204f2416a66a9152f96e3e2deef262bbe66edee320bf04273621e8bfb520f")

    def test_failing_first_cell_stops_the_grid(self, tmp_path, monkeypatch):
        ran = []

        def counted(g, cfg):
            ran.append(g.n)
            return drop_first_edge(g, cfg)

        monkeypatch.setattr(bench, "decompose_logstar", counted)
        with pytest.raises(BenchFailure, match="gnp8n n=12 seed=0"):
            bench_scaling(families=("gnp8n",), sizes=(12, 16), seeds=(0, 1),
                          out=str(tmp_path / "r.csv"))
        assert ran == [12]
        # the output was opened before the first cell, and is left empty
        assert (tmp_path / "r.csv").read_text() == ""

    def test_failing_later_cell_stops_the_rest(self, tmp_path, monkeypatch):
        ran = []
        real = bench.decompose_logstar

        def broken_at_16(g, cfg):
            ran.append(g.n)
            return drop_first_edge(g, cfg) if g.n == 16 else real(g, cfg)

        monkeypatch.setattr(bench, "decompose_logstar", broken_at_16)
        with pytest.raises(BenchFailure, match="^gnp8n n=16 seed=0: ") as exc:
            bench_scaling(families=("gnp8n",), sizes=(12, 16, 20), seeds=(0,),
                          out=str(tmp_path / "r.csv"))
        assert ran == [12, 16]
        assert Path(exc.value.repro_path) == tmp_path / "bench_failure_gnp8n_16_0.edges"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bench_failure_gnp8n_16_0.edges", "r.csv"]
        assert (tmp_path / "r.csv").read_text() == ""

    def test_cells_run_in_grid_order(self, monkeypatch):
        calls = []
        real = bench._bench_one

        def recorded(family, n, seed, cfg, base):
            calls.append((family, n, seed))
            return real(family, n, seed, cfg, base)

        monkeypatch.setattr(bench, "_bench_one", recorded)
        text = bench_scaling(families=("gnp8n", "eulerian"), sizes=(16, 12), seeds=(1, 0))
        expected = sorted((f, n, s) for f in ("gnp8n", "eulerian") for n in (16, 12)
                          for s in (1, 0))
        assert calls == expected
        assert [(r["family"], int(r["n"]), int(r["seed"])) for r in rows_of(text)] == expected
