"""The validity guards hold under ``python -O``, which strips assert statements.

The guard tests run in a ``python -O -m pytest`` subprocess; pytest keeps the
asserts of the test modules themselves, so only the package runs optimized.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GUARD_TESTS = [
    "tests/test_cli.py::TestValidateMalformed",
    "tests/test_cli.py::TestOutputPathIsADirectory::test_report_to_a_directory_exit2_one_line",
    "tests/test_cli.py::TestOutputPathIsADirectory::test_out_to_a_directory_exit2_one_line",
    "tests/test_expansion.py::test_params_reject_non_finite_s",
    "tests/test_expansion.py::test_params_reject_a_denominator_const_not_finite_and_positive",
    "tests/test_graph_core.py::test_edge_list_errors_carry_line_numbers",
    "tests/test_graph_core.py::test_vertex_count_over_the_limit_rejected_before_allocation",
    "tests/test_graph_core.py::test_parser_matches_reference",
    "tests/test_bench.py::TestBenchScaling::test_sizes_below_one_rejected_upfront",
    "tests/test_cli.py::TestBenchCommand::test_size_below_one_exits_2_with_one_line",
    "tests/test_bench.py::TestBenchScaling::test_sizes_above_the_vertex_limit_rejected_upfront",
    "tests/test_cli.py::TestBenchCommand::test_size_above_the_vertex_limit_exits_2_with_one_line",
    "tests/test_cli.py::TestDecomposeRoundTrip::test_out_and_report_naming_one_file_exit2_one_line",
    "tests/test_bench.py::TestBenchScaling::test_repeated_family_size_or_seed_rejected_upfront",
    "tests/test_cli.py::TestBenchCommand::test_repeated_grid_entry_exits_2_with_one_line",
    "tests/test_cli.py::TestBenchCommand::test_family_alias_exits_2_with_one_line",
    "tests/test_cli.py::TestGen::test_wrong_parameter_count_exit2_one_line",
    "tests/test_cli.py::TestGen::test_gnp_vertex_count_checked_before_any_pair_is_drawn",
    "tests/test_cli.py::TestRoute::test_through_id_outside_graph_exit2_one_line",
    "tests/test_connectivity.py::TestRoutePairs::test_through_id_outside_graph_rejected",
    "tests/test_pipeline.py::TestPipelineConfig::test_unknown_preset_rejected",
    "tests/test_cli.py::TestExpanders::test_check_without_split_exit2_one_line",
    "tests/test_pathscycles.py::TestCarriedAnswer::test_a_stale_carried_cycle_is_refused",
    "tests/test_records.py::test_every_construction_path_is_checked",
    "tests/test_records.py::test_no_field_can_be_assigned",
]


def test_guards_hold_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *GUARD_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "passed" in proc.stdout and "failed" not in proc.stdout
