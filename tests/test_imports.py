"""Every module-level import of a ridecast module (``__init__`` files aside,
since they re-export) is used somewhere in that module, a package's
``__all__`` names exactly what its ``__init__`` imports, and every module the
package imports is in the standard library or a declared dependency."""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ridecast"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
INITS = sorted(p for p in SRC.rglob("__init__.py") if "__all__" in p.read_text())


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line; ``__future__`` skipped."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Every name the module loads, including those inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def test_modules_found():
    assert {"market.py", "sim.py", "training.py", "model.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.relative_to(SRC)}: unused imports (name: line) {unused}"


def test_inits_with_all_found():
    assert SRC / "nn" / "__init__.py" in INITS


@pytest.mark.parametrize("path", INITS, ids=lambda p: str(p.relative_to(SRC)))
def test_all_names_exactly_the_imports(path):
    # a name in __all__ that is not imported breaks ``import *``; an import missing from it is a stale export
    tree = ast.parse(path.read_text(), filename=str(path))
    (exported,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["__all__"]]
    assert set(exported) == set(imported_names(tree)), f"{path.relative_to(SRC)}: __all__ and imports differ"


def declared_dependencies() -> set[str]:
    """Import names of the ``[project] dependencies`` in pyproject.toml (``numpy>=1.24`` -> ``numpy``)."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_") for d in deps}


def test_imports_are_stdlib_or_declared_dependencies():
    # an undeclared package (scipy, say) can be installed where the tests run, yet missing for users
    allowed = set(sys.stdlib_module_names) | declared_dependencies() | {"ridecast"}
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                found.setdefault(top, f"{path.relative_to(SRC)}:{node.lineno}")
    assert "numpy" in found
    undeclared = {top: where for top, where in found.items() if top not in allowed}
    assert not undeclared, f"imports neither in the standard library nor declared in pyproject.toml: {undeclared}"
