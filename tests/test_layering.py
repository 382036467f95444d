"""The package's modules form layers: every intra-package import is made at
module level and the graph of those imports has no cycle.  Outside the
package they import only the standard library and numpy, the one declared
runtime dependency."""

import ast
import graphlib
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "perigid"


def _relative_imports(path: Path) -> tuple[set, list]:
    """(modules imported, line numbers of the imports made below module level)
    for the ``from .x import`` and ``from . import x`` statements of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    targets, nested = set(), []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        if id(node) not in top:
            nested.append(node.lineno)
        if node.module is None:
            targets.update(alias.name for alias in node.names)
        else:
            targets.add(node.module.split(".")[0])
    return targets, nested


def test_package_imports_are_module_level_and_acyclic():
    graph, nested = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        graph[path.stem], lines = _relative_imports(path)
        if lines:
            nested[path.name] = lines
    assert nested == {}, "function-local package imports"
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError naming the cycle


def test_package_imports_only_stdlib_and_numpy():
    outside = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    outside.setdefault(path.name, []).append(name)
    assert outside == {}, "imports outside the standard library and numpy"
