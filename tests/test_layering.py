"""The package's modules form layers: every intra-package import is made at
module level and the graph of those imports has no cycle.  Outside the
package they import only the standard library and numpy, the one declared
runtime dependency.  A stress matrix is assembled and decided in few, named
places."""

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


def _scopes():
    """(scope, node) for the package's top-level functions and methods, the
    scope as ``module.function`` or ``module.Class.method``."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            for member in node.body if is_class else [node]:
                scope = getattr(member, "name", "<module>")
                scope = f"{path.stem}.{node.name}.{scope}" if is_class else f"{path.stem}.{scope}"
                yield scope, member


def _callers(name: str) -> set:
    """The scopes whose bodies (closures included) call ``name`` as a bare
    name or as an attribute."""
    callers = set()
    for scope, member in _scopes():
        for call in ast.walk(member):
            func = getattr(call, "func", None)
            if name in (getattr(func, "id", None), getattr(func, "attr", None)):
                callers.add(scope)
    return callers


def test_one_path_decides_a_stress_matrix():
    """Only ``_stress_spectrum`` takes a stress matrix's spectrum; the dense
    matrices are built only there and where a solve or a conjugation reads
    their entries."""
    assert _callers("symmetric_spectrum") == {"stress._stress_spectrum"}
    assert _callers("weighted_laplacians") == {
        "stress._stress_spectrum",
        "optimize.standard_realization",
        "construct.conjugation_identity_check",
    }


def test_decisions_read_the_edge_columns():
    """The certificates, the sign check and the stress spectrum read the
    graph's columns and arrays, never the tuple of GainEdge that
    ``graph.edges`` builds on first read."""
    decisions = {scope for scope, _ in _scopes() if scope.startswith("certify.certify_")}
    assert len(decisions) == 4
    decisions |= {"stress.is_proper", "stress._stress_spectrum"}
    readers = {
        scope
        for scope, member in _scopes()
        for node in ast.walk(member)
        if isinstance(node, ast.Attribute)
        and node.attr == "edges"
        and isinstance(node.value, ast.Name)
        and node.value.id == "graph"
    }
    assert "fileformat.to_document" in readers  # the scan sees a reader
    assert decisions & readers == set()
