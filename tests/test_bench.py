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
from cycledecomp.graph import (
    MAX_VERTICES,
    Decomposition,
    Graph,
    format_edge_list,
    parse_edge_list,
)

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

    def test_vertex_count_checked_before_any_pair_is_made(self):
        # (2k+1)(n-2k-1) pairs past the limit would take gigabytes
        with pytest.raises(ValueError, match="exceeds the limit"):
            gen_gallai_bipartite(0, MAX_VERTICES + 1)

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

    def test_vertex_count_checked_before_any_stub_is_made(self):
        # n*d stubs and n neighbour sets past the limit would take gigabytes
        with pytest.raises(ValueError, match="exceeds the limit"):
            gen_regular(MAX_VERTICES + 2, 0, 0)


# sha256 of format_edge_list(gen(*args)).  Every G(n, p) digest, the
# eulerian ones included, follows gen_gnp's stream of one random() per pair
# in row-major order, so a change to that stream needs these re-pinned.
GENERATOR_GOLDEN = [
    (gen_gnp, (0, 0.5, 0), "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101"),
    (gen_gnp, (1, 0.5, 0), "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),
    (gen_gnp, (2, 1, 0), "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834"),
    (gen_gnp, (6, 0, 1), "3e6a55c946ac49027ba9b8aa0aed2362f58b55fd739cb84287ea16693421fb1b"),
    (gen_gnp, (128, 1, 0), "eb30293cb613d8ec7f8fbd8db4281e873fbb0558a302c9aad50ec3363a33571e"),
    (gen_gnp, (384, 0.5, 1000),
     "7210804bb28122493dd7a0492369a0e2e6c0651b360d5f91fb65350028b8b986"),
    (gen_gnp, (1024, 8 / 1024, 3),
     "cafea56b55e72121018ce1d0990c8d6f9f1b3fb6f2b20ad94174d542a96df9c2"),
    (gen_gallai_bipartite, (0, 12),
     "033b7c51f5a5d0266c4729eb15a2459de184f5930c7b001b5405bd41338b8e98"),
    (gen_gallai_bipartite, (1, 12),
     "1b0f0edb484c7ee0e488f75846a2c2e51e2bfdf70468171ac2ce18a342119034"),
    (gen_gallai_bipartite, (2, 12),
     "f20f6ee54e33ba109607ee35e321aa8cfdc2f1faeb75be6a5db01ce6a7a0a3c9"),
    (gen_gallai_bipartite, (5, 12),
     "8f1d2f7e1ba282e50e95dd62ed57bad1fc5fa044f49736424d81dfcc6a626ba4"),
    (gen_gallai_bipartite, (0, 1024),
     "bd5a13e8221d5afc0fcdd83178a00c2e3bd77625fb7b4ed234244fc76fb2f012"),
    (gen_gallai_bipartite, (1, 1024),
     "35a4cae20cfffa44a02aaf46687e96509f22138b611061d19e249359b0975ec7"),
    (gen_gallai_bipartite, (2, 1024),
     "dc2b05286ad3842e0ea2c16907577fb00363e7fda7659f9eec0c667afce13b12"),
    (gen_gallai_bipartite, (5, 1024),
     "15674e70c7f954c2806213f674e19b61bc14743c1207bf3c484acc001a701ac7"),
    (gen_eulerian, (64, 1, 0), "e5a351920877a3fbdfb77131e43461d128d358a3eb5aa5a19d89213fa130f46f"),
    (gen_eulerian, (1024, 8 / 1024, 1000),
     "0c6514daf12a5122fce2d9aaca29394604bf0c2a19a77d7b6a33cf294bb7bc1e"),
    (gen_regular, (200, 3, 1), "5a7a35b3a76fc003e033d55b9675308aca8a3c357d43f120cb36135d45f7f1b6"),
    (gen_regular, (12, 11, 0), "a7860f42ed2e9e7d092b8e58d71aef574bde8a04cbf7dc9352e32b1a32fdd545"),
]


@pytest.mark.parametrize("gen, args, digest", GENERATOR_GOLDEN,
                         ids=[f"{gen.__name__}{args}" for gen, args, _ in GENERATOR_GOLDEN])
def test_generator_bytes_pinned(gen, args, digest):
    """The generators build their hosts without from_edges' checks and sort,
    so each host must be the one from_edges would build, its table strictly
    in pair order, and its edge-list text must parse back to the same table,
    as perfbench's set-up hands that text to the timed parse."""
    g = gen(*args)
    text = format_edge_list(g)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    ref = Graph.from_edges(g.host_n, g.edge_table)
    assert (g.edge_table, g.vertices, g.edge_ids) == (ref.edge_table, ref.vertices, ref.edge_ids)
    tab = g.edge_table
    assert all(a < b for a, b in zip(tab, tab[1:]))
    assert parse_edge_list(text).edge_table == tab


class TestBenchScaling:
    def test_empty_sizes_gives_header_only(self):
        text = bench_scaling(sizes=(), seeds=(0,))
        assert text.splitlines() == [",".join(bench.CSV_COLUMNS)]

    # each gallaiK family has one spelling: ASCII digits without a leading
    # zero, so no other name reruns the same cells under a new label
    @pytest.mark.parametrize("name", ["nosuch", "gallai", "gallai01", "gallai001", "gallai\u0661"])
    def test_unknown_family_rejected_upfront(self, name, monkeypatch):
        monkeypatch.setattr(bench, "_bench_one", lambda *a: pytest.fail("an instance ran"))
        with pytest.raises(ValueError) as exc:
            bench_scaling(families=("gnp8n", name), sizes=(16,), seeds=(0,))
        assert str(exc.value) == f"unknown family {name!r}"

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

    def test_sizes_above_the_vertex_limit_rejected_upfront(self, monkeypatch):
        ran = []
        monkeypatch.setattr(bench, "decompose_logstar", lambda g, cfg: ran.append(g.n))
        with pytest.raises(ValueError, match=f"sizes must be at most {MAX_VERTICES}"):
            bench_scaling(families=("gnp8n",), sizes=(128, MAX_VERTICES + 1), seeds=(0,))
        assert ran == []

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
