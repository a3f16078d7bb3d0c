"""Every name a module of ``folnerlab`` imports is used by that module,
every module-level function or class is referenced somewhere, finite sets
stay in their one representation, and the FFT products import no scipy.

No linter is part of the toolchain, so this is the check.  ``__init__.py``
is exempt from the import check: its imports are the package's re-exports.
"""
import ast
import functools
import os
import subprocess
import sys
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


def _mentions_elems(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "elems"
               for n in ast.walk(node))


def _set_rebuilds(tree: ast.Module) -> list:
    """Places that rebuild a ``FinSet`` as a Python set or a dense-row
    matrix of its element tuples instead of using its key array."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "as_set":
            out.append(f"line {node.lineno}: .as_set")
        elif isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in ("set", "frozenset", "dense_rows") and any(
                    _mentions_elems(a) for a in node.args):
                out.append(f"line {node.lineno}: {name}(... .elems ...)")
        elif isinstance(node, ast.SetComp) and any(
                _mentions_elems(g.iter) for g in node.generators):
            out.append(f"line {node.lineno}: {{... for ... in .elems}}")
    return out


@pytest.mark.parametrize("module", [m for m in MODULES if m != "groups.py"])
def test_finite_sets_are_not_rebuilt_from_elems(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _set_rebuilds(tree) == []


def test_set_rebuild_check_catches_each_form():
    src = ("a = set(F.elems)\nb = frozenset(g(x) for x in F.elems)\n"
           "c = grp.dense_rows(F.elems, 2)\nd = F.as_set()\n"
           "e = {grp.mul(t, c) for t in F.elems}\nok = F.rows()\n")
    assert len(_set_rebuilds(ast.parse(src))) == 5


_GRID_PRODUCTS = """
import sys
from folnerlab import CyclicSum, ZPower, groups
ran = []
convolve = groups._convolve
groups._convolve = lambda *a: ran.append(grp) or convolve(*a)
for grp, ranges in ((ZPower(2), [range(20)] * 2), (CyclicSum((2,)), [range(2)] * 7)):
    box = groups._box(grp, ranges)
    assert len(box) ** 2 > groups._GRID_PAIR_THRESHOLD
    groups.product_set(box, box)
    assert ran[-1:] == [grp]  # the grid ran: linear on Z^2, cyclic on the sum
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_grid_products_import_no_scipy():
    out = subprocess.run([sys.executable, "-c", _GRID_PRODUCTS], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"
