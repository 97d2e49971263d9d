"""Every name a ``cablecal`` module imports is used in that module, every
module-level private name is read somewhere in the package, and only
``core`` writes files.

No linter ships with the toolchain, so these stdlib ``ast`` scans stand in
for one. The unused-import scan skips ``__init__.py``: its imports are the
package's public re-exports. ``core`` owns the artifact file format, and
its ``_replacing`` replaces all the files of an artifact together, so a
write anywhere else would bypass that guarantee.
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


def _private_definitions(tree) -> dict:
    """Each private name a module-level statement defines, with its line
    number; a decorated function is left out, as its decorator may be its
    use (a registered command, a context manager)."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) or (isinstance(node, ast.FunctionDef)
                                             and not node.decorator_list):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                names.update((n.id, node.lineno) for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return {k: v for k, v in names.items() if k.startswith("_") and not k.startswith("__")}


def _read(tree) -> set:
    """Names loaded, read as an attribute or imported by name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return used


def test_scan_flags_an_unread_private_name():
    tree = ast.parse("import m\n_A = 1\n_B, (_C, d) = 2, (3, 4)\n_D: int = 5\n"
                     "def _f(): return _A\nclass _K: pass\n@m.command\ndef _g(): pass\n"
                     "def _h(): pass\n_E = 6\n_E = 7\n__all__ = []\nm._B\n"
                     "from m import _C\nx = _K\n")
    assert set(_private_definitions(tree)) - _read(tree) == {"_D", "_f", "_h", "_E"}


def test_every_private_name_is_read_in_the_package():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    read = set().union(*map(_read, trees.values()))
    unread = [f"{name}:{line} {k}" for name, tree in sorted(trees.items())
              for k, line in _private_definitions(tree).items() if k not in read]
    assert not unread, f"module-level private names never read: {unread}"


def _file_writes(tree) -> list:
    """Lines that open a file for writing (or with a mode the scan cannot
    read), replace or rename one, or call ``.write_text``/``.write_bytes``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        owner = getattr(getattr(func, "value", None), "id", None)
        if name == "open":
            # the mode is open()'s second argument but Path.open()'s first
            at = 1 if isinstance(func, ast.Name) else 0
            modes = node.args[at:at + 1] + [k.value for k in node.keywords
                                            if k.arg == "mode"]
            writes = any(not isinstance(m, ast.Constant)
                         or set(str(m.value)) & set("wax+") for m in modes)
        else:
            writes = (name in ("write_text", "write_bytes")
                      or name in ("replace", "rename") and owner == "os")
        if writes:
            lines.append(node.lineno)
    return lines


def test_scan_flags_a_planted_file_write():
    tree = ast.parse("import os\n"
                     "open(p)\nopen(p, 'rb')\np.open()\ns.replace('a', 'b')\nreplace(d)\n"
                     "open(p, 'a')\nopen(p, mode='r+')\np.open('w')\n"
                     "open(p, m)\np.write_text('x')\np.write_bytes(b)\n"
                     "os.replace(a, b)\nos.rename(a, b)\n")
    assert _file_writes(tree) == list(range(7, 15))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"],
                         ids=lambda p: p.name)
def test_only_core_writes_files(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _file_writes(tree), (
        f"{path.name}: file writes outside core (lines) {_file_writes(tree)}")


def test_trajectory_and_data_leave_the_formats_to_core():
    for name, banned in (("trajectory.py", {"csv", "json"}),
                         ("data.py", {"json"})):
        tree = ast.parse((SRC / name).read_text())
        assert not banned & set(_imported(tree)), name
