"""The records are checked on every construction path, cannot be assigned
to, and print as they always have.

Each checked record raises the same ValueError, first failing check first,
through the class call, ``_make`` and ``_replace``.  The checks are
``if ... raise``, not asserts, so they hold under ``python -O`` as well
(tests/test_optimized.py runs them there)."""

import math

import pytest

from cycledecomp.connectivity import PairBatch, route_pairs
from cycledecomp.expansion import ExpanderParams, certify_expander
from cycledecomp.graph import Cycle, Graph, Path, validate_decomposition
from cycledecomp.pipeline import PipelineConfig, RunReport, decompose_logstar

# (a valid record, field values that break it, the message they raise)
CHECKED = [
    (Cycle((0, 1, 2), (0, 1, 2)), {"vertices": (0, 1)}, "cycle needs at least 3 vertices"),
    (Cycle((0, 1, 2), (0, 1, 2)), {"vertices": (0, 0), "edge_ids": (1,)},
     "cycle needs at least 3 vertices"),
    (Cycle((0, 1, 2), (0, 1, 2)), {"edge_ids": (0, 1)}, "cycle needs one edge per vertex"),
    (Cycle((0, 1, 2), (0, 1, 2)), {"vertices": (0, 1, 0)}, "cycle repeats a vertex"),
    (Path((0, 1), (0,)), {"edge_ids": ()}, "path needs exactly one more vertex than edge"),
    (Path((0, 1), (0,)), {"vertices": (0, 0, 0), "edge_ids": ()},
     "path needs exactly one more vertex than edge"),
    (Path((0, 1), (0,)), {"vertices": (0, 0)}, "path repeats a vertex"),
    (PairBatch(((0, 1),)), {"pairs": ((0, 1), (2, 2), (3, 3))}, r"pair \(2, 2\) is degenerate"),
    (ExpanderParams(0.5, 1.0), {"epsilon": 0.0}, r"epsilon must lie in \(0, 1\]"),
    (ExpanderParams(0.5, 1.0), {"epsilon": 1.5, "s": -1.0}, r"epsilon must lie in \(0, 1\]"),
    (ExpanderParams(0.5, 1.0), {"s": -1.0}, "s must be finite and nonnegative"),
    (ExpanderParams(0.5, 1.0), {"s": math.inf, "denominator": "log2"},
     "s must be finite and nonnegative"),
    (ExpanderParams(0.5, 1.0), {"denominator": "log2"}, "denominator must be 'log2sq' or 'const'"),
    (ExpanderParams(0.5, 1.0), {"denominator_const": math.nan},
     "denominator_const must be finite and positive"),
    (PipelineConfig("paper", 1), {"preset": "fast"}, "unknown preset 'fast'"),
]


def test_every_construction_path_is_checked():
    for good, bad, message in CHECKED:
        cls = type(good)
        values = [bad.get(name, value) for name, value in zip(good._fields, good)]
        for build in (lambda: cls(*values), lambda: cls(**dict(zip(good._fields, values))),
                      lambda: cls._make(values), lambda: good._replace(**bad)):
            with pytest.raises(ValueError, match=message):
                build()
        assert cls._make(good) == good and type(good._replace()) is cls


def test_no_field_can_be_assigned():
    for good, _, _ in CHECKED:
        for name in good._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(good, name, None)


K6 = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_reprs_pinned():
    """The text of each public record, as the frozen dataclasses printed it."""
    dec, report = decompose_logstar(K6, PipelineConfig.engineering(7))
    failure = route_pairs(C4, PairBatch.from_pairs([(2, 0), (1, 3)]), {0, 1, 2, 3}, ell=2,
                          strategy="matching_oracle")
    got = [
        Cycle((0, 1, 2), (0, 1, 5)),
        Path((3, 4, 0), (3, 4)),
        dec,
        validate_decomposition(K6, dec),
        PipelineConfig.paper(3),
        ExpanderParams(0.5, 2.0, "const", 4.0),
        certify_expander(P4, ExpanderParams(1.0, 1.0)),
        failure,
        RunReport(tuple({**it, "seconds": 0.25} for it in report.iterations)),
    ]
    assert [repr(r) for r in got] == [
        "Cycle(vertices=(0, 1, 2), edge_ids=(0, 1, 5))",
        "Path(vertices=(3, 4, 0), edge_ids=(3, 4))",
        "Decomposition(source='87027d50cf2c8544', n=6, m=15, cycles=(Cycle(vertices=(0, 1, 2, 3, 4),"
        " edge_ids=(0, 5, 9, 12, 3)), Cycle(vertices=(0, 2, 4, 1, 3), edge_ids=(1, 10, 7, 6, 2))),"
        " single_edges=(4, 8, 11, 13, 14), stats={'n_cycles': 2, 'n_single_edges': 5, 'pieces': 7,"
        " 'strategy': 'logstar', 'iterations': 1, 'iteration_cap': 5, 'eulerian_finished': False,"
        " 'preset': 'engineering', 'seed': 7})",
        "ValidationReport(ok=True, problems=(), n_cycles=2, n_single_edges=5, covered_edges=15)",
        "PipelineConfig(preset='paper', rng_seed=3)",
        "ExpanderParams(epsilon=0.5, s=2.0, denominator='const', denominator_const=4.0)",
        "ExpanderVerdict(mode='exhaustive', params=ExpanderParams(epsilon=1.0, s=1.0,"
        " denominator='log2sq', denominator_const=1.0), violation=(frozenset({0}), frozenset({0})),"
        " subsets_checked=1)",
        "RouteFailure(stuck=((0, 2), (1, 3)), attempts=1,"
        " reason='no edge-disjoint system of representatives exists')",
        "RunReport(iterations=({'d_in': 5.0, 'min_len': 5, 'edges_in': 15, 'parts': 1,"
        " 'peeled_cycles': 0, 'short_cycles': 0, 'd_out': 1.6666666666666667, 'cycles_peeled': 2,"
        " 'cycles_general': 0, 'cycle_edges': 10, 'edges_left': 5, 'seconds': 0.25},))",
    ]
