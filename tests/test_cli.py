"""End-to-end tests for the command line front end."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycledecomp.bench as bench
import cycledecomp.cli as cli
from cycledecomp.cli import main
from cycledecomp.graph import MAX_VERTICES, ValidationReport, format_edge_list, parse_edge_list
from cycledecomp.pipeline import PART_COUNTERS

from helpers import complete_graph, cycle_graph

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv, stdin: str = "") -> tuple[int, str, str]:
    if stdin:
        sys.stdin = io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdin = sys.__stdin__
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_gnp_deterministic(self, capsys):
        a = run(capsys, ["gen", "gnp", "16", "0.5", "--seed", "7"])
        b = run(capsys, ["gen", "gnp", "16", "0.5", "--seed", "7"])
        assert a == b and a[0] == 0
        g = parse_edge_list(a[1])
        assert g.host_n == 16

    def test_gallai_shape(self, capsys):
        code, out, _ = run(capsys, ["gen", "gallai", "1", "12"])
        assert code == 0
        assert parse_edge_list(out).m == 27

    def test_regular(self, capsys):
        code, out, _ = run(capsys, ["gen", "regular", "10", "4", "--seed", "3"])
        assert code == 0
        g = parse_edge_list(out)
        assert all(d == 4 for d in g.degrees().values())

    def test_bad_params_exit2(self, capsys):
        code, _, err = run(capsys, ["gen", "gnp", "16"])
        assert code == 2
        assert "gen" in err

    @pytest.mark.parametrize("argv, names", [
        (["gnp", "10"], "N P"),
        (["gnp", "4", "0.5", "99"], "N P"),
        (["gallai", "1"], "K N"),
        (["regular", "10", "4", "2"], "N D"),
    ])
    def test_wrong_parameter_count_exit2_one_line(self, capsys, argv, names):
        code, out, err = run(capsys, ["gen", *argv])
        assert (code, out) == (2, "")
        assert err == f"gen: {argv[0]} takes exactly two parameters, {names}\n"

    @pytest.mark.parametrize("n, p, out, err", [
        (MAX_VERTICES + 1, "0", "",
         f"gen: vertex count {MAX_VERTICES + 1} exceeds the limit of {MAX_VERTICES}\n"),
        (-1, "0.5", "", "gen: vertex count must be nonnegative\n"),
        (10 ** 5, "0", f"{10 ** 5} 0\n", ""),
    ])
    def test_gnp_vertex_count_checked_before_any_pair_is_drawn(self, n, p, out, err):
        # a pair loop over n vertices would run far past the timeout
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            q for q in (str(ROOT / "src"), env.get("PYTHONPATH")) if q
        )
        cmd = [sys.executable, *["-O"] * sys.flags.optimize, "-m", "cycledecomp.cli"]
        proc = subprocess.run(
            [*cmd, "gen", "gnp", str(n), p], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2 if err else 0, out, err)


    @pytest.mark.parametrize("argv, n", [
        (["regular", str(MAX_VERTICES + 2), "0"], MAX_VERTICES + 2),
        (["gallai", "0", str(MAX_VERTICES + 1)], MAX_VERTICES + 1),
    ])
    def test_generators_check_the_vertex_count_before_they_allocate(self, capsys, argv, n):
        # the stubs or pairs of a graph past the limit would take gigabytes
        code, out, err = run(capsys, ["gen", *argv])
        assert (code, out) == (2, "")
        assert err == f"gen: vertex count {n} exceeds the limit of {MAX_VERTICES}\n"


class TestDecomposeRoundTrip:
    def test_pipe_gen_decompose_validate(self, capsys):
        code, edges, _ = run(capsys, ["gen", "gnp", "16", "0.5", "--seed", "7"])
        assert code == 0
        code, dec_json, _ = run(capsys, ["decompose", "--seed", "7", "--quiet"], stdin=edges)
        assert code == 0
        code, verdict, _ = run(capsys, ["validate"], stdin=dec_json)
        assert code == 0
        assert json.loads(verdict)["ok"] is True

    def test_validate_against_graph_file(self, capsys, tmp_path):
        code, edges, _ = run(capsys, ["gen", "gnp", "14", "0.4", "--seed", "2"])
        gpath = tmp_path / "g.edges"
        gpath.write_text(edges)
        code, dec_json, _ = run(capsys, ["decompose", "--quiet", str(gpath)])
        assert code == 0
        code, verdict, _ = run(
            capsys, ["validate", "--graph", str(gpath)], stdin=dec_json
        )
        assert code == 0

    def test_cross_check_catches_wrong_graph(self, capsys, tmp_path):
        _, edges, _ = run(capsys, ["gen", "gnp", "14", "0.4", "--seed", "2"])
        _, other, _ = run(capsys, ["gen", "gnp", "14", "0.4", "--seed", "3"])
        gpath = tmp_path / "other.edges"
        gpath.write_text(other)
        _, dec_json, _ = run(capsys, ["decompose", "--quiet"], stdin=edges)
        code, verdict, _ = run(capsys, ["validate", "--graph", str(gpath)], stdin=dec_json)
        assert code == 1
        assert json.loads(verdict)["ok"] is False

    def test_edgeless_input(self, capsys):
        code, out, _ = run(capsys, ["decompose", "--quiet"], stdin="5 0\n")
        assert code == 0
        doc = json.loads(out)
        assert doc["cycles"] == [] and doc["edges"] == []

    def test_malformed_line_exit2_cites_line(self, capsys):
        code, _, err = run(capsys, ["decompose"], stdin="4 1\na b\n")
        assert code == 2
        assert "line 2" in err

    def test_report_file(self, capsys, tmp_path):
        rpt = tmp_path / "report.json"
        _, edges, _ = run(capsys, ["gen", "gnp", "20", "0.4", "--seed", "1"])
        code, _, _ = run(
            capsys, ["decompose", "--quiet", "--report", str(rpt)], stdin=edges
        )
        assert code == 0
        doc = json.loads(rpt.read_text())
        assert doc["pieces"] == doc["n_cycles"] + doc["n_single_edges"]
        assert isinstance(doc["degree_trajectory"], list)
        assert doc["iterations"]
        for it in doc["iterations"]:
            assert set(it) == {
                "d_in", "d_out", "min_len", "seconds", "edges_in", "cycle_edges", "edges_left",
                "cycles_peeled", "cycles_general", "parts", *PART_COUNTERS,
            }

    def test_out_and_report_naming_one_file_exit2_one_line(self, capsys, tmp_path):
        # both spellings of the report path resolve to the --out file, which
        # is never created
        same = tmp_path / "same.json"
        (tmp_path / "sub").mkdir()
        for report in (same, tmp_path / "sub" / ".." / "same.json"):
            argv = ["decompose", "--out", str(same), "--report", str(report)]
            assert run(capsys, argv, stdin="3 3\n0 1\n1 2\n0 2\n") == (
                2, "", "error: --out and --report name the same file\n")
            assert not same.exists()

    def test_determinism_byte_identical(self, capsys):
        _, edges, _ = run(capsys, ["gen", "gnp", "24", "0.5", "--seed", "4"])
        _, a, _ = run(capsys, ["decompose", "--seed", "9", "--quiet"], stdin=edges)
        _, b, _ = run(capsys, ["decompose", "--seed", "9", "--quiet"], stdin=edges)
        assert a == b

    def test_shuffled_file_gives_the_bytes_of_the_sorted_file(self, capsys, tmp_path):
        # edge ids follow pair order, so the order of a file's lines changes nothing
        _, edges, _ = run(capsys, ["gen", "gnp", "40", "0.3", "--seed", "5"])
        header, *lines = edges.splitlines()
        random.Random(2).shuffle(lines)
        files = tmp_path / "sorted.edges", tmp_path / "shuffled.edges"
        files[0].write_text(edges)
        files[1].write_text("\n".join([header] + lines) + "\n")
        for preset in ("engineering", "paper"):
            a, b = (run(capsys, ["decompose", "--preset", preset, str(f)]) for f in files)
            assert a == b and a[0] == 0

    def test_self_validation_failure_is_reported_under_quiet(self, capsys, monkeypatch):
        failed = ValidationReport(False, ("edge 0 uncovered",), 0, 0, 0)
        monkeypatch.setattr(cli, "validate_decomposition", lambda g, d: failed)
        code, out, err = run(capsys, ["decompose", "--quiet"], stdin="3 3\n0 1\n1 2\n0 2\n")
        assert code == 1 and json.loads(out)["n"] == 3
        assert err == "decomposition failed self-validation: edge 0 uncovered\n"


class TestOutputPathIsADirectory:
    TRIANGLE = "3 3\n0 1\n1 2\n0 2\n"

    def test_report_to_a_directory_exit2_one_line(self, capsys, tmp_path):
        # the report path fails before any output: none on stdout, no --out file
        argv = ["decompose", "--quiet", "--report", str(tmp_path)]
        out_file = tmp_path / "dec.json"
        for extra in ([], ["--out", str(out_file)]):
            code, out, err = run(capsys, argv + extra, stdin=self.TRIANGLE)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_file.exists()

    @pytest.mark.parametrize("argv", [["gen", "gnp", "8", "0.5"], ["decompose", "--quiet"]])
    def test_out_to_a_directory_exit2_one_line(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, argv + ["--out", str(tmp_path)], stdin=self.TRIANGLE)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestConfigPrecedence:
    def test_preset_and_seed_are_the_whole_configuration(self, capsys, tmp_path):
        cfgfile = tmp_path / "knobs.cfg"
        cfgfile.write_text("rng_seed=5\n")
        for argv in (
            ["decompose", "--config", str(cfgfile)],
            ["decompose", "--no-eulerian-finish"],
            ["gen", "gnp", "10", "0.5", "--preset", "paper"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        two_triangles = "6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n"
        code, out, _ = run(
            capsys, ["decompose", "--preset", "paper", "--seed", "9", "--quiet"],
            stdin=two_triangles,
        )
        assert code == 0
        stats = json.loads(out)["stats"]
        assert (stats["preset"], stats["seed"]) == ("paper", 9)

    @pytest.mark.parametrize("command", ["validate", "paths", "longcycle", "euler", "bench"])
    def test_seed_only_where_it_is_read(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "gnp", "8", "0.5"],
        ["validate"],
        ["certify", "--epsilon", "1", "--s", "1"],
        ["expanders", "--epsilon", "1", "--s", "1"],
        ["route", "--pairs", "p", "--through", "t", "--ell", "2"],
        ["paths"],
        ["longcycle"],
        ["euler"],
    ])
    def test_quiet_only_where_there_are_progress_notes(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--quiet"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith("error: unrecognized arguments: --quiet")

    def test_paper_preset_past_float_range(self, capsys):
        # a host far larger than its edges: the round passes the residue on
        code, out, err = run(capsys, ["decompose", "--preset", "paper"], stdin="12000 1\n0 1\n")
        assert code == 0, err
        assert json.loads(out)["edges"] == [[0, 1]]

    def test_paper_preset_accepted(self, capsys):
        code, out, _ = run(
            capsys, ["decompose", "--preset", "paper", "--quiet"], stdin="4 3\n0 1\n1 2\n2 3\n"
        )
        assert code == 0
        assert json.loads(out)["stats"]["preset"] == "paper"


def _simple_edge_list(n: int, pairs: list[tuple[int, int]]) -> str:
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


_edge_line = st.tuples(st.integers(-1, 66), st.integers(-1, 66)).map(lambda t: f"{t[0]} {t[1]}")
_edge_list_texts = st.one_of(
    # well-formed graphs on up to 64 vertices
    st.integers(1, 64).flatmap(
        lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=150)
        .map(lambda pairs: _simple_edge_list(n, pairs))
    ),
    # a small header over noisy lines
    st.tuples(
        st.integers(0, 64),
        st.integers(0, 40),
        st.lists(
            st.one_of(_edge_line, st.sampled_from(["", "# c", "0", "x y"]), st.text(max_size=5)),
            max_size=40,
        ),
    ).map(lambda t: "\n".join([f"{t[0]} {t[1]}"] + t[2]) + "\n"),
)


class TestDecomposeInputBoundary:
    def test_huge_header_exit2_one_line_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["decompose", "--quiet"], stdin="1000000000000 0\n")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("error: line 1:") and err.count("\n") == 1

    @settings(max_examples=120, deadline=None)
    @given(_edge_list_texts)
    def test_fuzzed_edge_lists_never_raise(self, text):
        code, err = run_quietly(["decompose", "--quiet"], text)
        assert code in (0, 1, 2)
        assert "Traceback" not in err


class TestCertify:
    def test_violation_witness_reverifies(self, capsys):
        c4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
        code, out, _ = run(
            capsys,
            ["certify", "--epsilon", "1", "--s", "1", "--denominator", "const"],
            stdin=c4,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["is_expander"] is False and doc["certified"] is True
        assert doc["witness"]["reverified"] is True

    def test_positive_verdict(self, capsys):
        c4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
        code, out, _ = run(capsys, ["certify", "--epsilon", "1", "--s", "0.5"], stdin=c4)
        assert code == 0
        doc = json.loads(out)
        assert doc["is_expander"] is True and doc["witness"] is None

    def test_connectivity_regime_over_the_cap(self, capsys):
        # epsilon 2^-5 with s = 0 makes expansion plain connectivity at n = 30,
        # which a component count settles although n is over the cap of 20
        code, edges, _ = run(capsys, ["gen", "gnp", "30", "0.3", "--seed", "1"])
        assert code == 0
        code, out, err = run(capsys, ["certify", "--epsilon", "0.03125", "--s", "0"], stdin=edges)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["is_expander"] is True and doc["certified"] is True
        assert doc["mode"] == "exhaustive" and doc["witness"] is None
        assert doc["subsets_checked"] == 0  # connected: no component to test

    def test_zero_threshold_answers_without_enumerating(self, capsys):
        # epsilon 1e-300 over a denominator of 1e308 underflows every survivor
        # threshold to 0, so no set violates and none is tested, at n = 20
        # and at n = 21, past the cap of 20
        zero = ["certify", "--epsilon", "1e-300", "--s", "0",
                "--denominator", "const", "--denominator-const", "1e308"]
        for n in ("20", "21"):
            _, edges, _ = run(capsys, ["gen", "gnp", n, "0.2", "--seed", "0"])
            assert run(capsys, zero, stdin=edges) == (0, (
                '{"certified":true,"is_expander":true,"mode":"exhaustive",'
                '"subsets_checked":0,"witness":null}\n'), "")

    @pytest.mark.parametrize("s", ["inf", "nan"])
    def test_non_finite_s_exit2_one_line(self, capsys, s):
        c4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
        code, out, err = run(
            capsys, ["certify", "--epsilon", "0.5", "--s", s, "--mode", "heuristic"], stdin=c4
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_huge_budget_saturates(self, capsys):
        c4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
        code, out, err = run(
            capsys, ["certify", "--epsilon", "0.5", "--s", "1e308", "--mode", "heuristic"], stdin=c4
        )
        assert code == 0, err
        assert json.loads(out)["is_expander"] is False

    def test_connected_cycle_tests_no_set_and_keeps_the_digit_limit(self, capsys):
        # the 15000-cycle is connected, so the connectivity regime tests no
        # set; a full enumeration would have visited a 4,516-digit count
        edges = format_edge_list(cycle_graph(15000))
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, ["certify", "--epsilon", "0.001", "--s", "0"], stdin=edges)
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        doc = json.loads(out)
        assert doc["is_expander"] is True
        assert doc["subsets_checked"] == 0
        # input parsing keeps the limit: a huge digit string still exits 2
        code, _, err = run(capsys, ["certify", "--epsilon", "0.001", "--s", "0"],
                           stdin="9" * 5000 + " 1\n")
        assert code == 2 and err.startswith("error: ")

    def test_connectivity_regime_on_a_200000_cycle_tests_no_set(self, capsys):
        edges = format_edge_list(cycle_graph(200_000))
        assert run(capsys, ["certify", "--epsilon", "0.001", "--s", "0"], stdin=edges) == (0, (
            '{"certified":true,"is_expander":true,"mode":"exhaustive",'
            '"subsets_checked":0,"witness":null}\n'), "")


class TestExpanders:
    def test_parts_manifest(self, capsys):
        two_triangles = "6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n"
        code, out, _ = run(
            capsys, ["expanders", "--epsilon", "0.1", "--s", "0"], stdin=two_triangles
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["part_sizes"] == [3, 3]
        assert doc["removed_count"] == 0
        total = sum(p["m"] for p in doc["parts"])
        assert total == 6

    def test_split_mode(self, capsys):
        code, out, _ = run(
            capsys,
            ["expanders", "--epsilon", "0.5", "--s", "0", "--split", "3", "--seed", "1"],
            stdin="8 8\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n0 7\n",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["classes"]) == 3
        assert sum(c["m"] for c in doc["classes"]) == 8
        assert doc["checked"] == [None, None, None]  # --check defaults to none


    @pytest.mark.parametrize("extra", [[], ["--split", "0"]])
    def test_check_without_split_exit2_one_line(self, capsys, extra):
        argv = ["expanders", "--epsilon", "0.5", "--s", "0", "--check", "exhaustive"]
        code, out, err = run(capsys, argv + extra, stdin="3 3\n0 1\n1 2\n0 2\n")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "--split" in err

    def test_check_with_split_verifies(self, capsys):
        argv = ["expanders", "--epsilon", "1", "--s", "1", "--split", "2", "--check"]
        k8 = format_edge_list(complete_graph(8))
        code, out, _ = run(capsys, argv + ["exhaustive"], stdin=k8)
        assert code == 0 and json.loads(out)["checked"] == [True, True]

    def test_split_check_honours_cap_exit2_one_line(self, capsys):
        # exhaustive checks are capped at 10 vertices, as certify caps them
        flags = ["--epsilon", "1", "--s", "8", "--denominator", "const",
                 "--denominator-const", "0.1", "--cap", "10"]
        _, g12, _ = run(capsys, ["gen", "gnp", "12", "0.5", "--seed", "1"])
        for argv in (["expanders", "--split", "2", "--check", "exhaustive"], ["certify"]):
            code, out, err = run(capsys, argv + flags, stdin=g12)
            assert (code, out) == (2, "")
            assert err == "error: exhaustive certification capped at n=10, got 12\n"


@pytest.mark.parametrize("command", ["certify", "expanders"])
@pytest.mark.parametrize("denominator", [[], ["--denominator", "log2sq"]])
def test_denominator_const_needs_const_denominator_exit2_one_line(capsys, command, denominator):
    """--denominator-const is refused, not ignored, unless --denominator const
    asks for it; with it, the constant is the denominator."""
    k4 = format_edge_list(complete_graph(4))
    flags = [command, "--epsilon", "0.5", "--s", "0.5", "--denominator-const", "7"]
    code, out, err = run(capsys, flags + denominator, stdin=k4)
    assert (code, out) == (2, "")
    assert err == "error: --denominator-const applies only with --denominator const\n"
    # in K4 each pair of vertices keeps its 2 outside neighbours against a
    # budget of 1: under the threshold ceil(1 / 0.25) = 4, not under ceil(1 / 7) = 1
    const = [command, "--epsilon", "0.5", "--s", "0.5", "--denominator", "const"]
    for value, expander in (("0.25", False), ("7", True)):
        code, out, err = run(capsys, const + ["--denominator-const", value], stdin=k4)
        assert code == 0, err
        doc = json.loads(out)
        if command == "certify":
            assert doc["is_expander"] is expander
        else:
            assert [part["certified"] for part in doc["parts"]] == [expander]


def run_quietly(argv: list[str], text: str) -> tuple[int, str]:
    """Exit code and stderr of a command on stdin text; exceptions escape."""
    sys.stdin = io.StringIO(text)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main(argv), err.getvalue()
    finally:
        sys.stdin = sys.__stdin__


def validate_quietly(text: str) -> int:
    """Exit code of ``validate`` on text; any exception escapes as a traceback."""
    return run_quietly(["validate"], text)[0]


_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.floats(), st.text(max_size=3)
)
_json = st.recursive(
    _leaf,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=2), kids, max_size=3)),
    max_leaves=10,
)
_vertex_lists = st.lists(st.lists(st.one_of(st.integers(0, 5), _leaf), max_size=4), max_size=4)
_documents = st.one_of(
    _json,
    st.fixed_dictionaries(
        {},
        optional={
            "n": st.one_of(st.integers(-1, 6), _leaf),
            "m": st.one_of(st.integers(-1, 6), _leaf),
            "cycles": st.one_of(_vertex_lists, _json),
            "paths": st.one_of(_vertex_lists, _json),
            "edges": st.one_of(_vertex_lists, _json),
            "source": _leaf,
        },
    ),
)


class TestValidateMalformed:
    @pytest.mark.parametrize("doc", [
        {"n": 3, "m": 3, "cycles": [[0, 1, 2.5]]},
        {"n": 3, "m": 1, "edges": [[0, 1.0]]},
        {"n": 2, "m": 1, "edges": [[False, True]]},
        {"n": True, "m": 0},
        {"n": 2, "m": True, "edges": [[0, 1]]},
        {"n": 3, "m": 3.0, "cycles": [[0, 1, 2]]},
    ])
    def test_non_integer_ids_and_counts_are_problems(self, capsys, doc):
        code, out, _ = run(capsys, ["validate"], stdin=json.dumps(doc))
        assert code == 1
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"n": 3, "m": 3, "cycles": [5]}',
        '{"n": 3, "m": 3, "cycles": [[0, "a", 2]]}',
        '{"n": 3, "m": 1, "edges": [[0, 1, 2]]}',
        pytest.param("[" * 100_000, id="nested-too-deep"),
    ])
    def test_wrong_shapes_exit2_one_line(self, capsys, text):
        code, out, err = run(capsys, ["validate"], stdin=text)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @settings(max_examples=300, deadline=None)
    @given(_documents)
    def test_fuzzed_documents_never_raise(self, doc):
        assert validate_quietly(json.dumps(doc)) in (0, 1, 2)


class TestRoute:
    def test_success(self, capsys, tmp_path):
        pairs = tmp_path / "p.txt"
        pairs.write_text("0 4\n")
        through = tmp_path / "v.txt"
        through.write_text("1 2 3 5 6 7\n")
        c8 = "8 8\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n0 7\n"
        code, out, _ = run(
            capsys,
            ["route", "--pairs", str(pairs), "--through", str(through), "--ell", "4"],
            stdin=c8,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["routed"] is True
        assert doc["paths"] == [[0, 1, 2, 3, 4]]

    def test_infeasible_exit1(self, capsys, tmp_path):
        pairs = tmp_path / "p.txt"
        pairs.write_text("0 2\n1 3\n")
        through = tmp_path / "v.txt"
        through.write_text("0 1 2 3\n")
        c4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
        code, out, _ = run(
            capsys,
            ["route", "--pairs", str(pairs), "--through", str(through),
             "--ell", "2", "--strategy", "matching_oracle"],
            stdin=c4,
        )
        assert code == 1
        assert json.loads(out)["routed"] is False

    def test_oracle_routes_more_pairs_than_the_recursion_limit(self, capsys, tmp_path):
        # 1,500 distinct pairs of K128 at ell 1: each has one candidate, its
        # own edge, and the backtracking goes 1,500 pairs deep
        pairs = [(u, v) for u in range(128) for v in range(u + 1, 128)][:1500]
        assert len(pairs) > sys.getrecursionlimit()
        pair_file = tmp_path / "p.txt"
        pair_file.write_text("".join(f"{u} {v}\n" for u, v in pairs))
        through = tmp_path / "v.txt"
        through.write_text("\n")
        code, out, err = run(
            capsys,
            ["route", "--pairs", str(pair_file), "--through", str(through),
             "--ell", "1", "--strategy", "matching_oracle"],
            stdin=format_edge_list(complete_graph(128)),
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["routed"] is True
        assert doc["paths"] == [list(pr) for pr in pairs]

    @pytest.mark.parametrize("strategy", ["greedy", "matching_oracle"])
    @pytest.mark.parametrize("pair, bad", [("98 99", 98), ("0 99", 99)])
    def test_endpoint_outside_graph_exit2_one_line(self, capsys, tmp_path, strategy, pair, bad):
        pairs = tmp_path / "p.txt"
        pairs.write_text(pair + "\n")
        through = tmp_path / "v.txt"
        through.write_text("1 2\n")
        p4 = "4 3\n0 1\n1 2\n2 3\n"
        code, out, err = run(
            capsys,
            ["route", "--pairs", str(pairs), "--through", str(through),
             "--ell", "3", "--strategy", strategy],
            stdin=p4,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: pair endpoint {bad} is not a vertex of the graph\n"

    @pytest.mark.parametrize("strategy", ["greedy", "matching_oracle"])
    def test_through_id_outside_graph_exit2_one_line(self, capsys, tmp_path, strategy):
        pairs = tmp_path / "p.txt"
        pairs.write_text("0 2\n")
        through = tmp_path / "v.txt"
        through.write_text("1 7\n")
        code, out, err = run(
            capsys,
            ["route", "--pairs", str(pairs), "--through", str(through),
             "--ell", "2", "--strategy", strategy],
            stdin="3 2\n0 1\n1 2\n",
        )
        assert (code, out) == (2, "")
        assert err == "error: through-set id 7 is not a vertex of the graph\n"


class TestPathsCyclesCommands:
    def test_paths_output_validates_standalone(self, capsys):
        _, edges, _ = run(capsys, ["gen", "gnp", "12", "0.4", "--seed", "6"])
        code, out, _ = run(capsys, ["paths"], stdin=edges)
        assert code == 0
        code, verdict, _ = run(capsys, ["validate"], stdin=out)
        assert code == 0

    def test_longcycle_min_len(self, capsys):
        c4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
        code, out, _ = run(capsys, ["longcycle", "--min-len", "4"], stdin=c4)
        assert code == 0 and json.loads(out)["length"] == 4
        code, _, err = run(capsys, ["longcycle", "--min-len", "5"], stdin=c4)
        assert (code, err) == (1, "cycle length 4 below requested 5\n")

    def test_longcycle_acyclic(self, capsys):
        code, out, _ = run(capsys, ["longcycle"], stdin="3 2\n0 1\n1 2\n")
        assert code == 1
        assert json.loads(out)["found"] is False

    def test_euler_even_graph(self, capsys):
        c4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
        code, out, _ = run(capsys, ["euler"], stdin=c4)
        assert code == 0
        assert json.loads(out)["cycles"] == [[0, 1, 2, 3]]

    def test_euler_rejects_odd(self, capsys):
        code, _, err = run(capsys, ["euler"], stdin="3 2\n0 1\n1 2\n")
        assert code == 1
        assert "odd" in err


class TestBenchCommand:
    def test_small_grid_csv(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        code, _, _ = run(
            capsys,
            ["bench", "--families", "gnp8n,gallai1", "--sizes", "16,24",
             "--seeds", "0", "--out", str(out), "--quiet"],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("family,")
        assert len(lines) == 5

    @pytest.mark.parametrize("arg", ["--sizes=0", "--sizes=16,0"])
    def test_size_below_one_exits_2_with_one_line(self, capsys, arg):
        code, out, err = run(capsys, ["bench", "--families", "gnp8n", "--seeds", "0", arg])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be at least 1" in err

    @pytest.mark.parametrize("args", [
        ["--families", "gnp8n,gnp8n", "--sizes", "16", "--seeds", "0"],
        ["--families", "gnp8n", "--sizes", "16,16", "--seeds", "0"],
        ["--families", "gnp8n", "--sizes", "16", "--seeds", "0,1,0"],
    ])
    def test_repeated_grid_entry_exits_2_with_one_line(self, capsys, args):
        code, out, err = run(capsys, ["bench", *args])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "given more than once" in err

    @pytest.mark.parametrize("name", ["gallai01", "gallai001", "gallai\u0661"])
    def test_family_alias_exits_2_with_one_line(self, capsys, name):
        code, out, err = run(capsys, ["bench", "--families", f"gnp8n,{name}",
                                      "--sizes", "8", "--seeds", "0"])
        assert (code, out, err) == (2, "", f"error: unknown family {name!r}\n")

    def test_size_above_the_vertex_limit_exits_2_with_one_line(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(bench, "decompose_logstar", lambda g, cfg: ran.append(g.n))
        code, out, err = run(capsys, ["bench", "--families", "gnp8n", "--sizes", "128,20000000",
                                      "--seeds", "0"])
        assert (code, out, err) == (
            2, "", f"error: sizes must be at most {MAX_VERTICES}, got 20000000\n")
        assert ran == []

    def test_canonical_gallai_names_run(self, capsys):
        code, out, _ = run(capsys, ["bench", "--families", "gallai0,gallai10",
                                    "--sizes", "22", "--seeds", "0"])
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["gallai0", "gallai10"]

    def test_unwritable_out_runs_no_cell(self, capsys, tmp_path, monkeypatch):
        ran = []
        real = bench.decompose_logstar

        def counted(g, cfg):
            ran.append(g.n)
            return real(g, cfg)

        monkeypatch.setattr(bench, "decompose_logstar", counted)
        argv = ["bench", "--families", "gnp8n", "--sizes", "64,128", "--seeds", "0,1",
                "--out", str(tmp_path / "missing" / "x.csv")]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ran == []

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(
            capsys, ["bench", "--families", "gnp8n", "--sizes", "12", "--seeds", "1"]
        )
        assert code == 0
        assert out.startswith("family,")
