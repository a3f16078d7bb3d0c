"""Every name a module of ``folnerlab`` imports is used by that module, and
every module-level function or class is referenced somewhere.

No linter is part of the toolchain, so this is the check.  ``__init__.py``
is exempt from the import check: its imports are the package's re-exports.
"""
import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "folnerlab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
# where a reference to a definition in src/folnerlab counts
SCANNED = sorted(p for d in ("src", "tests", "demos", "bench")
                 for p in (ROOT / d).rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_modules_are_found():
    assert "groups.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _unused_imports(tree) == []


def _referenced(node: ast.AST, skip: ast.AST = None) -> set:
    """Names, attribute names and imported names used in ``node``, not
    counting anything inside ``skip``."""
    out, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(n))
    return out


@functools.lru_cache(maxsize=None)
def _file_refs(path: Path) -> set:
    return _referenced(ast.parse(path.read_text(), filename=str(path)))


@pytest.mark.parametrize("module", MODULES)
def test_no_unreferenced_definitions(module):
    path = SRC / module
    tree = ast.parse(path.read_text(), filename=module)
    elsewhere = set().union(*(_file_refs(p) for p in SCANNED if p != path))
    dead = [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in elsewhere
            and node.name not in _referenced(tree, skip=node)]
    assert dead == []
