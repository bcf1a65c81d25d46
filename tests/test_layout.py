"""What each module may know of the others: graph.py alone holds a graph's
cached adjacency, the pipeline reaches no expander code, and no module
hands work to a pool of processes or threads."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cycledecomp"


def test_only_graph_names_the_cached_arrays():
    private = re.compile(r"\b(_adj|_neighbour_lists)\b")
    named = {path.name for path in SRC.glob("*.py") if private.search(path.read_text())}
    assert named == {"graph.py"}


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
