"""What each module may know of the others: graph.py alone holds a graph's
cached adjacency and builds its views, the pipeline reaches no expander
code, and no module hands work to a pool of processes or threads."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cycledecomp"


def test_only_graph_names_the_cached_arrays():
    private = re.compile(r"\b(_adj|_neighbour_lists)\b")
    named = {path.name for path in SRC.glob("*.py") if private.search(path.read_text())}
    assert named == {"graph.py"}


def test_only_graph_and_the_peel_construct_graphs():
    """Every view comes from a graph.py method; the peel alone builds its
    own, around the arrays it cuts down as it takes each cycle."""
    callers = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "Graph"):
                    callers.add((path.name, getattr(top, "name", "<module>")))
    outside = {c for c in callers if c[0] != "graph.py"}
    assert outside == {("pathscycles.py", "peel_long_cycles")}


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
