"""AST scans of the sources: every import is used, every public name of the
package has a caller outside the tests, and ``src/`` calls no BLAS.

An imported name counts as used when it appears as a name anywhere in its
module, in the package, the tests, the demos and the benchmark. The
re-exports of ``__init__.py`` and ``__future__`` imports are skipped.

A public top-level function or class of ``src/mhd2d``, or a public method
of a public class, counts as reached when code that users run names it:
the package outside ``__init__.py`` and the definition itself, the demos,
the benchmark and the acceptance gates. A name is a name or attribute
node, an imported name or a string constant that is exactly the name (the
benchmark wraps functions by name); the other tests do not count, so a
name that only tests call goes, or moves into ``tests/reference.py``.

The package reduces with numpy's own loops only: a BLAS product's last bit
depends on its thread count (on a 256^2 band, ``np.dot`` of the H^m
weight and |v|^2 read ``0x1.0fd11ff592ceep+15`` on one OpenBLAS thread and
``...cedp+15`` on two; ``np.einsum`` read ``...ceep+15`` on both), which
would make ``diagnostics.csv`` depend on the machine. So the
``dot``-family names, the ``@`` operator and ``einsum(..., optimize=...)``,
which may hand its contraction to BLAS, are refused anywhere in ``src/``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for top in ("src", "tests", "demos", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_reports_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\nimport os\nimport numpy as np\n"
                   "from json import dump, loads\nprint(np.pi, loads)\n", encoding="utf-8")
    assert _unused_imports(mod) == [(2, "os"), (4, "dump")]


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _name_counts(tree):
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _IDENTIFIER.fullmatch(node.value)):
            counts[node.value] += 1
    return counts


def _unreached(modules, users):
    """``file:line name`` of each public definition in ``modules`` that no
    file of ``users`` names outside the definition itself."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in {*modules, *users}}
    named = sum((_name_counts(trees[path]) for path in users), Counter())
    found = []
    for path in modules:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            defs = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += [(m, f"{node.name}.{m.name}") for m in node.body
                         if isinstance(m, ast.FunctionDef) and m.name[0] != "_"]
            for d, label in defs:
                own = _name_counts(d)[d.name] if path in users else 0
                if named[d.name] <= own:
                    found.append(f"{path.name}:{d.lineno} {label}")
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = [p for p in sorted((ROOT / "src" / "mhd2d").glob("*.py"))
               if p.name != "__init__.py"]
    users = modules + sorted((ROOT / "demos").rglob("*.py"))
    users += sorted((ROOT / "bench").rglob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    found = _unreached(modules, users)
    assert not found, "public names only tests reach:\n" + "\n".join(found)


def test_scan_reports_each_unreached_name(tmp_path):
    mod, user = tmp_path / "mod.py", tmp_path / "user.py"
    mod.write_text('"""Mentions gone in a docstring: gone."""\n'
                   "def used():\n    return _private()\n"
                   "def gone():\n    return gone\n"
                   "def _private():\n    return 1\n"
                   "def wrapped():\n    pass\n"
                   "class Box:\n    def called(self):\n        pass\n"
                   "    def idle(self):\n        pass\n"
                   "    def _hidden(self):\n        pass\n"
                   "class _Inner:\n    def idle_too(self):\n        pass\n", encoding="utf-8")
    user.write_text("from mod import used\nimport mod\n"
                    "WRAPS = (('mod', 'wrapped'), ('mod', 'gone.attr'))\n"
                    "mod.Box().called(used())\n", encoding="utf-8")
    assert _unreached([mod], [mod, user]) == ["mod.py:4 gone", "mod.py:13 Box.idle"]


BLAS_NAMES = {"dot", "vdot", "matmul", "vecdot", "inner", "tensordot", "multi_dot"}


def _blas_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in BLAS_NAMES]
        elif (isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
              and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
              and any(k.arg == "optimize" for k in node.keywords)):
            found.append((node.lineno, "einsum(optimize=)"))
    return sorted(found)


def test_src_calls_no_blas():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, name in _blas_uses(path)
    ]
    assert not found, "BLAS reductions in src:\n" + "\n".join(found)


def test_scan_reports_each_blas_use(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import numpy as np\nfrom numpy import vdot\n"
                   "a = np.ones(3)\ninner = np.einsum('i,i->', a, a)\n"
                   "b = np.dot(a, a) + a.dot(a) + np.matmul(a, a) + np.vecdot(a, a)\n"
                   "c = a @ a\nc @= a\n"
                   "d = np.inner(a, a) + np.tensordot(a, a, 1) + np.linalg.multi_dot([a, a])\n"
                   "e = np.einsum('i,i->', a, a, optimize=True)\n", encoding="utf-8")
    assert _blas_uses(mod) == [
        (2, "vdot"), (5, "dot"), (5, "dot"), (5, "matmul"), (5, "vecdot"), (6, "@"),
        (7, "@"), (8, "inner"), (8, "multi_dot"), (8, "tensordot"), (9, "einsum(optimize=)"),
    ]
