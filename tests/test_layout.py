"""What each module may know of the others: graph.py alone holds a graph's
cached adjacency and builds its views, certify_expander alone builds a
verdict, the pipeline reaches no expander code, no module hands work to a
pool of processes or threads, every definition in src/ is named somewhere
outside itself, every field in src/ is read, every record is a NamedTuple
whose fields its class body declares, and the calls perfbench's tracer wraps
by name keep their shapes."""

import ast
import importlib
import re
from pathlib import Path

from cycledecomp import pathscycles, pipeline
from cycledecomp.graph import Cycle, Graph

SRC = Path(__file__).resolve().parent.parent / "src" / "cycledecomp"


def test_only_graph_names_the_cached_arrays():
    private = re.compile(r"\b(_adj|_neighbour_lists)\b")
    named = {path.name for path in SRC.glob("*.py") if private.search(path.read_text())}
    assert named == {"graph.py"}


def callers(name: str) -> set[tuple[str, str]]:
    """(module file, definition) of every call to name in src/, made bare or
    as an attribute such as ``cls.name``.  A definition is a top-level one,
    or ``Class.method`` for a call in a method, ``Class.<body>`` elsewhere
    in a class."""
    found = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            top_name = getattr(top, "name", "<module>")
            if isinstance(top, ast.ClassDef):
                parts = [(f"{top_name}.{getattr(d, 'name', '<body>')}", d) for d in top.body]
            else:
                parts = [(top_name, top)]
            for where, part in parts:
                if any(isinstance(node, ast.Call)
                       and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                       for node in ast.walk(part)):
                    found.add((path.name, where))
    return found


def test_only_graph_and_the_peel_construct_graphs():
    """Every view comes from a graph.py method; the peel alone builds its
    own, around the arrays it cuts down as it takes each cycle."""
    outside = {c for c in callers("Graph") if c[0] != "graph.py"}
    assert outside == {("pathscycles.py", "peel_long_cycles")}


def test_only_the_checked_builders_and_the_generators_build_hosts():
    """_host takes its table on trust: only the two builders that check
    their input, and the generators that make their pairs in pair order
    after their vertex-limit checks, may hand it one."""
    assert callers("_host") == {
        ("graph.py", "Graph.from_edges"), ("graph.py", "parse_edge_list"),
        ("bench.py", "gen_gnp"), ("bench.py", "gen_gallai_bipartite"),
        ("bench.py", "gen_eulerian"), ("bench.py", "gen_regular"),
    }


def test_only_certify_expander_builds_verdicts():
    """Each certifier returns its violating set and count; the verdict and
    its witness's F are made in one place, and its flags derive from them."""
    assert callers("ExpanderVerdict") == {("expansion.py", "certify_expander")}


def test_pipeline_imports_only_graph_and_pathscycles():
    tree = ast.parse((SRC / "pipeline.py").read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("cycledecomp")):
            package.add(node.module)
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.startswith("cycledecomp"))
    assert package == {"graph", "pathscycles"}


def test_no_module_starts_workers():
    roots = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots.add(node.module.split(".")[0])
    assert not roots & {"concurrent", "multiprocessing"}


# perfbench/tracing.py swaps these names for wrappers that call the
# originals with the arguments below and read the results as shown, so a
# change of signature or result shape fails here, not only in a traced run


def test_traced_peel_takes_a_graph_and_a_floor_and_returns_cycles_and_residual():
    assert pipeline.peel_long_cycles is pathscycles.peel_long_cycles
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    cycles, residual = pipeline.peel_long_cycles(g, 3)
    assert all(isinstance(c, Cycle) for c in cycles) and cycles
    assert isinstance(residual, Graph)
    assert sum(len(c.edge_ids) for c in cycles) + residual.m == g.m


def test_traced_finder_takes_a_graph():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert isinstance(pathscycles.find_long_cycle_dfs(g), Cycle)


def test_traced_expander_stage_has_the_part_counters_as_stats():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    got = pipeline.decompose_expander(g, pipeline.PipelineConfig.engineering())
    assert set(got.stats) == set(pipeline.PART_COUNTERS)
    assert all(type(v) is int for v in got.stats.values())
    assert isinstance(got.rest, Graph)


def test_every_definition_in_src_is_named_outside_itself():
    """Each function, method and class in src/ is named somewhere in src/,
    demos/ or perfbench/ outside its own definition; what nothing names is
    dead code.  Dunder names are called by Python itself."""
    root = SRC.parent.parent
    trees = {path: ast.parse(path.read_text()) for folder in ("src", "demos", "perfbench")
             for path in sorted((root / folder).rglob("*.py"))}
    named: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            else:
                continue
            named.setdefault(name, []).append((path, node.lineno))
    unnamed = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(where != path or not node.lineno <= line <= node.end_lineno
                       for where, line in named.get(node.name, ())):
                unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    assert unnamed == []


def test_every_field_in_src_is_read():
    """Each annotated class field in src/ is read as an attribute somewhere
    in src/, demos/ or perfbench/; a field nothing reads is a second copy of
    what its producer already knows.  Fields are matched by name, so a read
    of any attribute of the same name counts: ``args.strategy`` in the CLI
    hid ``RouteFailure.strategy``, which nothing read, from this test, and
    that field was found and removed by hand."""
    root = SRC.parent.parent
    trees = {path: ast.parse(path.read_text()) for folder in ("src", "demos", "perfbench")
             for path in sorted((root / folder).rglob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in read):
                    unread.append(f"{path.name}:{stmt.lineno} {cls.name}.{stmt.target.id}")
    assert unread == []


def record_form_problems(sources: dict[str, str]) -> list[str]:
    """What breaks the record form in the given module sources: an import of
    dataclasses, a class with annotated fields that is not a NamedTuple, a
    NamedTuple whose class body declares no field, and a record made by a
    call to ``NamedTuple`` or ``namedtuple``, whose fields no class body
    declares and so no field rule sees."""
    problems = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            where = f"{name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                if any(a.name.split(".")[0] == "dataclasses" for a in node.names):
                    problems.append(f"{where} imports dataclasses")
            elif isinstance(node, ast.ImportFrom):
                if not node.level and node.module.split(".")[0] == "dataclasses":
                    problems.append(f"{where} imports dataclasses")
            elif isinstance(node, ast.Call):
                if (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in (
                        "NamedTuple", "namedtuple"):
                    problems.append(f"{where} makes a record by a call")
            elif isinstance(node, ast.ClassDef):
                declared = any(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
                named_tuple = any((getattr(b, "id", None) or getattr(b, "attr", None)) == "NamedTuple"
                                  for b in node.bases)
                if declared and not named_tuple:
                    problems.append(f"{where} {node.name} declares fields but is no NamedTuple")
                if named_tuple and not declared:
                    problems.append(f"{where} {node.name} is a NamedTuple that declares no field")
    return problems


def test_records_are_named_tuples_with_declared_fields():
    """No dataclass, and no record made by a call.  Each tuple class of the
    package takes its fields, in order, from a class body's annotations, and
    keeps no instance dict, so none of its instances can be assigned to."""
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert record_form_problems(sources) == []
    declared = {}
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                declared[name[:-3], node.name] = tuple(
                    stmt.target.id for stmt in node.body if isinstance(stmt, ast.AnnAssign))
    records = set()
    for name in sources:
        module = importlib.import_module(f"cycledecomp.{name[:-3]}")
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, tuple) and cls.__module__ == module.__name__:
                owner = next(c for c in cls.__mro__ if "_fields" in vars(c))
                assert declared.get((name[:-3], owner.__name__)) == cls._fields, cls
                assert cls.__dictoffset__ == 0, cls
                records.add(cls.__name__)
    assert {r for r in records if not r.startswith("_")} == {
        "Path", "Cycle", "Decomposition", "ValidationReport", "WellSpreadResult", "PairBatch",
        "RoutedPaths", "RouteFailure", "ExpanderParams", "ExpanderVerdict", "DichotomyOutcome",
        "AlmostDecomposeResult", "SplitResult", "PipelineConfig", "Stage", "RunReport"}


def test_the_record_rule_fails_on_every_other_form():
    assert record_form_problems({"a.py": "from typing import NamedTuple\n"
                                         "class A(NamedTuple):\n    x: int\n"}) == []
    for text in ("from typing import NamedTuple\nA = NamedTuple('A', [('x', int)])\n",
                 "import typing\nclass A(typing.NamedTuple('B', [('x', int)])):\n    pass\n",
                 "import collections\nA = collections.namedtuple('A', 'x y')\n",
                 "from dataclasses import dataclass\n",
                 "import dataclasses\n",
                 "class A:\n    x: int\n",
                 "from typing import NamedTuple\nclass A(NamedTuple):\n    x = 0\n"):
        assert len(record_form_problems({"a.py": text})) == 1, text
