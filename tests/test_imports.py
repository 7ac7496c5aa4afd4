"""Every module-level import of a ridecast module (``__init__`` files aside,
since they re-export) is used somewhere in that module."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ridecast"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


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
