"""Every name a ``cablecal`` module imports is used in that module.

No linter ships with the toolchain, so this stdlib ``ast`` scan stands in
for one. ``__init__.py`` is skipped: its imports are the package's public
re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "cablecal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree) -> dict:
    """Each name an import statement binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _referenced(tree) -> set:
    """Names read anywhere, string annotations such as ``-> "Dataset"``
    included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _referenced(ast.parse(ann.value, mode="eval"))
    return used


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Optional\n"
                     "def f(x: Optional[int]) -> 'List[int]':\n    return x\n")
    assert set(_imported(tree)) - _referenced(tree) == {"os"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in _referenced(tree)}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"
