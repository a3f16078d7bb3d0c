"""Every name a module of ``folnerlab`` imports is used by that module,
every module-level function, class or constant and every method has a
caller outside the tests, every gate refusal with a literal hypothesis has
a pinned case, finite sets stay in their one representation, config
parsers read only through the checked reader, the dense product counts
import no scipy, the classifiers and ``birkhoff_check``'s sampled target
import no ``numpy.random``, numpy generators are built only in the listed
functions (none), and the package states one version.

No linter is part of the toolchain, so this is the check.  ``__init__.py``
is exempt from the import check: its imports are the package's re-exports.
"""
import ast
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "folnerlab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _scanned(root: Path) -> list:
    """Where a reference to a definition in src/ counts: src/, demos/ and
    bench/, not tests/ (a definition only tests use is dead code), and not
    ``__init__.py`` (its re-exports would make every exported name look used)."""
    return sorted(p for d in ("src", "demos", "bench") for p in (root / d).rglob("*.py")
                  if p.name != "__init__.py")


SCANNED = _scanned(ROOT)
# methods and properties that nothing outside the tests names, each with why
# it stays
_UNREFERENCED_METHODS_OK = {
    "uniform_at": "bench/tracer.py counts its calls and names it only as a string",
}


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


def _foreign(node: ast.AST) -> set:
    """The names that imports in ``node`` bind to modules, or to names in
    modules, outside ``folnerlab``: ``np`` of ``import numpy as np``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in n.names
                    if a.name.split(".")[0] != "folnerlab"}
        elif (isinstance(n, ast.ImportFrom) and n.level == 0
              and n.module.split(".")[0] != "folnerlab"):
            out |= {a.asname or a.name for a in n.names}
    return out


def _root(n: ast.AST) -> ast.AST:
    """The object at the head of an attribute chain: ``np`` of ``np.linalg.norm``."""
    while isinstance(n, ast.Attribute):
        n = n.value
    return n


def _referenced(node: ast.AST, skip: ast.AST = None) -> set:
    """Names, attribute names and imported names used in ``node``, not
    counting anything inside ``skip``, nor an attribute of a module outside
    ``folnerlab`` (``np.diff`` names no ``diff`` of ours)."""
    out, stack, foreign = set(), [node], _foreign(node)
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            if getattr(_root(n), "id", None) not in foreign:
                out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(n))
    return out


@functools.lru_cache(maxsize=None)
def _file_refs(path: Path) -> set:
    return _referenced(ast.parse(path.read_text(), filename=str(path)))


def _defined(node: ast.stmt) -> list:
    """The names a module-level statement binds: a function, a class, or
    the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def _unreferenced(path: Path, scanned: list) -> list:
    """Module-level functions, classes and assigned names of ``path`` that
    neither their own module nor any other scanned file refers to."""
    tree = ast.parse(path.read_text(), filename=str(path))
    elsewhere = set().union(*(_file_refs(p) for p in scanned if p != path))
    return [name for node in tree.body for name in _defined(node)
            if name not in elsewhere and name not in _referenced(tree, skip=node)]


@pytest.mark.parametrize("module", MODULES)
def test_no_unreferenced_definitions(module):
    assert _unreferenced(SRC / module, SCANNED) == []


def test_unreferenced_check_ignores_test_callers(tmp_path):
    files = {"src/pkg/__init__.py": "from .mod import helper, used\n",
             "src/pkg/mod.py": "LIMIT = 3\nSTEP: int = 2\n\n\ndef helper():\n    return 1\n\n\n"
                               "def used():\n    return STEP\n",
             "demos/demo.py": "from pkg.mod import used\nused()\n",
             # an attribute of another package's module is not a reference
             "demos/other.py": "import numpy as np\nfrom os import path\n"
                               "np.helper()\nnp.linalg.LIMIT\npath.helper\n",
             "tests/test_mod.py": "from pkg.mod import LIMIT, helper\nhelper(LIMIT)\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert _unreferenced(tmp_path / "src/pkg/mod.py", _scanned(tmp_path)) == ["LIMIT", "helper"]


def _unreferenced_methods(path: Path, scanned: list) -> list:
    """``Class.name`` of each method or property of a class in ``path`` whose
    name no scanned file mentions, nor its own module outside its def;
    dunders are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    elsewhere = set().union(*(_file_refs(p) for p in scanned if p != path))
    return [f"{cls.name}.{node.name}"
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in elsewhere
            and node.name not in _referenced(tree, skip=node)]


@pytest.mark.parametrize("module", MODULES)
def test_no_unreferenced_methods(module):
    dead = _unreferenced_methods(SRC / module, SCANNED)
    assert [m for m in dead if m.split(".")[1] not in _UNREFERENCED_METHODS_OK] == []


def test_unreferenced_method_check_ignores_test_callers(tmp_path):
    files = {"src/pkg/__init__.py": "from .mod import C\n",
             "src/pkg/mod.py": "class C:\n    def __len__(self):\n        return 0\n\n"
                               "    def helper(self):\n        return 1\n\n"
                               "    def used(self):\n        return self.inner()\n\n"
                               "    def inner(self):\n        return 2\n",
             "demos/demo.py": "from pkg.mod import C\nC().used()\n",
             "tests/test_mod.py": "from pkg.mod import C\nC().helper()\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert _unreferenced_methods(tmp_path / "src/pkg/mod.py", _scanned(tmp_path)) == ["C.helper"]
    # the allowlist holds only names the check would flag
    flagged = {m.split(".")[1] for mod in MODULES
               for m in _unreferenced_methods(SRC / mod, SCANNED)}
    assert set(_UNREFERENCED_METHODS_OK) <= flagged


def _literal_refusals(tree: ast.Module) -> list:
    """(hypothesis, detail) of each ``GateRefusal(...)`` whose hypothesis is
    a string literal; the detail is None unless it is a literal too."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "GateRefusal"
                and node.args and isinstance(node.args[0], ast.Constant)):
            detail = node.args[1] if len(node.args) > 1 else None
            out.append((node.args[0].value,
                        detail.value if isinstance(detail, ast.Constant) else None))
    return out


def test_every_literal_refusal_is_pinned():
    # each refusal a gate can raise has a case in the pinned-string table
    from test_ergodic import _REFUSALS

    pinned = {(hyp, detail) for _, hyp, detail, _ in _REFUSALS.values()}
    hypotheses = {hyp for hyp, _ in pinned}
    unpinned = [(module, hyp, detail) for module in MODULES
                for hyp, detail in _literal_refusals(ast.parse((SRC / module).read_text()))
                if hyp not in hypotheses
                or (detail is not None and (hyp, detail) not in pinned)]
    assert unpinned == []


def test_literal_refusal_scan_catches_each_form():
    src = ("GateRefusal('a', 'b')\nGateRefusal('c', f'd {x}')\nGateRefusal('e')\n"
           "GateRefusal(f'g {x}', 'h')\nRuntimeError('i', 'j')\n")
    assert _literal_refusals(ast.parse(src)) == [("a", "b"), ("c", None), ("e", None)]


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


def _config_bypasses(tree: ast.Module) -> list:
    """Places where a ``from_json``/``*_from_json`` function, or a
    name->constructor table it hands to ``_kind``, reads its config object
    around the checked reader: a coercing ``int(``/``float(``, a
    ``.startswith(`` kind match, a subscript or ``.get`` of the config
    argument (the first parameter of the function or of a table lambda), or
    a subscript by a string key, as in ``c["weight"]`` on a nested object."""
    tables = {t.id: node.value for node in tree.body
              if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    out = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.endswith("from_json")):
            continue
        scanned = [fn] + [tables[a.id] for call in ast.walk(fn)
                          if isinstance(call, ast.Call)
                          and getattr(call.func, "id", None) == "_kind"
                          for a in call.args[1:2]
                          if isinstance(a, ast.Name) and a.id in tables]
        configs = {f.args.args[0].arg for body in scanned for f in ast.walk(body)
                   if isinstance(f, (ast.FunctionDef, ast.Lambda)) and f.args.args}
        for node in (n for body in scanned for n in ast.walk(body)):
            at = f"{fn.name} line {node.lineno}" if hasattr(node, "lineno") else ""
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name) and f.id in ("int", "float"):
                    out.append(f"{at}: {f.id}(")
                elif isinstance(f, ast.Attribute) and f.attr == "startswith":
                    out.append(f"{at}: .startswith(")
                elif (isinstance(f, ast.Attribute) and f.attr == "get"
                      and getattr(f.value, "id", None) in configs):
                    out.append(f"{at}: {f.value.id}.get(")
            elif isinstance(node, ast.Subscript) and (
                    getattr(node.value, "id", None) in configs
                    or isinstance(getattr(node.slice, "value", None), str)):
                out.append(f"{at}: {ast.unparse(node.value)}[...]")
    return out


@pytest.mark.parametrize("module", MODULES)
def test_config_parsers_read_only_through_the_reader(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _config_bypasses(tree) == []


def test_config_bypass_check_catches_each_form():
    src = ("def from_json(d):\n    return _kind(d, _KINDS)(d)\n"
           "_KINDS = {'a': lambda d: A(int(d.get('n', 1))),\n"
           "          'b': lambda c: B(c['x'], float(_get(c, 'y', 0, *_NUM)))}\n"
           "def x_from_json(d):\n    return d['kind'].startswith('x')\n"
           "def y_from_json(d, parse):\n"
           "    return [parse(c['system']) for c in _get(d, 'c', ..., *_OBJS)]\n"
           "_GAMMAS = {'half': lambda k: float(k) / 2}\n"
           "def to_json(d):\n    return {'n': int(d['n'])}\n")
    found = [f.split(": ")[1] for f in _config_bypasses(ast.parse(src))]
    assert sorted(found) == sorted(["int(", "d.get(", "c[...]", "float(",
                                    "d[...]", ".startswith(", "c[...]"])


_DENSE_PRODUCTS = """
import sys
import numpy as np
from folnerlab import CyclicSum, ZPower, groups
ran = []
bincount = np.bincount
np.bincount = lambda x, minlength: ran.append(grp) or bincount(x, minlength=minlength)
for grp, ranges in ((ZPower(2), [range(20)] * 2), (CyclicSum((2,)), [range(2)] * 7)):
    box = groups._box(grp, ranges)
    near = box.take(slice(1, None))  # not a box: two boxes take the box path
    groups.product_set(near, box)
    assert ran[-1:] == [grp]  # the dense count ran, on Z^2 and on the sum
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_grid_products_import_no_scipy():
    out = subprocess.run([sys.executable, "-c", _DENSE_PRODUCTS], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


_CLASSIFIERS = """
import math
import sys
from folnerlab import CyclicSum, ZPower
from folnerlab.ergodic import setfn_classify, setfn_registry
from folnerlab.families import AdditiveFamily, ConcaveCardinality, classify
from folnerlab.ergodic import birkhoff_check
from folnerlab.folner import make_folner
from folnerlab.systems import (BernoulliShift, FiniteMixture, TorusRotation, indicator_symbol,
                               neg_pow_run)
for grp in (ZPower(1), CyclicSum((2,))):
    system = FiniteMixture([(0.5, BernoulliShift(grp, (0.5, 0.5))),
                            (0.5, BernoulliShift(grp, (0.2, 0.8)))])
    assert classify(AdditiveFamily(indicator_symbol(1)), grp, system).passed("invariant")
    assert setfn_classify(setfn_registry(grp)["card"], grp).passed("subadditive")
assert classify(ConcaveCardinality(math.sqrt), ZPower(2),
                TorusRotation(None, (0.3, 0.6))).passed("invariant")
# no exact mean: birkhoff's target is sampled
birkhoff_check(neg_pow_run(2.0, 12), make_folner(ZPower(1), "z_boxes"),
               BernoulliShift(ZPower(1), (0.7, 0.3)), [4, 16], 20)
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""


def test_classifiers_import_no_numpy_random():
    # both classifiers draw their trials, and birkhoff_check its sampled
    # target, from _bits._Streams, with no generator
    out = subprocess.run([sys.executable, "-c", _CLASSIFIERS], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


# the functions of src/ that build a numpy generator, each with why
_GENERATOR_SITES_OK = {}


def _generator_sites(tree: ast.Module, where: str) -> list:
    """The enclosing ``module.function`` of each ``default_rng(...)`` or
    ``Generator(...)`` call, in source order."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out += _generator_sites(node, f"{where}.{node.name}")
            continue
        if isinstance(node, ast.Call):
            fn = node.func
            if (fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)) in (
                    "default_rng", "Generator"):
                out.append(where)
        out += _generator_sites(node, where)
    return out


def test_numpy_generators_are_built_only_where_listed():
    # a generator per trial or per point that comes back fails here
    sites = [s for m in MODULES
             for s in _generator_sites(ast.parse((SRC / m).read_text()), m[:-3])]
    assert sorted(sites) == sorted(_GENERATOR_SITES_OK)


def test_generator_site_scan_catches_each_form():
    src = ("def f(t):\n    return [np.random.default_rng([1, t])]\n"
           "class C:\n    def g(self):\n"
           "        return numpy.random.Generator(np.random.PCG64(0))\n"
           "def h():\n    def k():\n        return default_rng(0)\n    return k\n"
           "x = np.random.default_rng(0)\nrng.integers(3)\n")
    assert _generator_sites(ast.parse(src), "m") == ["m.f", "m.C.g", "m.h.k", "m"]


def test_package_version_is_stated_once():
    # the CSV header and the run summary stamp _bits.VERSION
    from folnerlab._bits import VERSION

    stated = re.findall(r'^version\s*=\s*"([^"]*)"', (ROOT / "pyproject.toml").read_text(),
                        re.MULTILINE)
    assert stated == [VERSION]
