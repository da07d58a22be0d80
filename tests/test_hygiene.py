"""AST scans of the sources: every import is used, every public name and
every optional parameter of the package has a caller outside the tests,
and ``src/`` calls no BLAS.

An imported name counts as used when it appears as a name anywhere in its
module, in the package, the tests, the demos and the benchmark; only
``__future__`` imports are skipped. ``__init__.py`` is scanned too, so the
package re-exports nothing: each name has one import path, its submodule.

A public top-level function or class of ``src/mhd2d``, or a public method
of a public class, counts as reached when code that users run names it:
the package outside the definition itself, the demos, the benchmark and
the acceptance gates. A function or class is named by a name or attribute
node, an imported name or a string constant that is exactly the name (the
benchmark wraps functions by name); a method only by an attribute node or
the last part of a dotted string constant (``"_Stepper.advance"``), since
a local variable or a plain string of the same name does not call it.
The other tests do not count, so a name that only tests call goes, or
moves into ``tests/reference.py``.

Each parameter with a default of a function, a method or an explicit
class ``__init__`` of ``src/mhd2d`` must be passed by that code in at
least one call: by position, by keyword, or through a ``*args`` or
``**kwargs`` forward (the benchmark's wrappers forward both, and the
stepper passes its coefficients as ``**kw``). A call is matched by the
called name, a class ``__init__`` through calls of the class. A parameter
that only tests set becomes its one value.

A frozen ``@dataclass`` of ``src/mhd2d`` that has no ``__post_init__``
and calls no ``field(...)`` is a plain value record, and it is a
``typing.NamedTuple`` instead: on a shared 2-vCPU x86-64 VM (Python
3.11.7), creating the class of a 24-field record, paid on every fresh
import, takes about 0.29 ms against 2.1 ms for the frozen dataclass, and
building one 0.42 us against 3.2 us.

The package reduces with numpy's own loops only: a BLAS product's last bit
depends on its thread count (on a 256^2 band, ``np.dot`` of the H^m
weight and |v|^2 read ``0x1.0fd11ff592ceep+15`` on one OpenBLAS thread and
``...cedp+15`` on two; ``np.einsum`` read ``...ceep+15`` on both), which
would make ``diagnostics.csv`` depend on the machine. So the
``dot``-family names, the ``@`` operator and ``einsum(..., optimize=...)``,
which may hand its contraction to BLAS, are refused anywhere in ``src/``.

Every physical-space plane of the package, the tendency's, a record's, the
advective bound's and the L^1 norm's, comes from ``spectral.to_physical``,
the band-pruned pair of 1-D passes: the column pass once, in place, over
the band, then the row pass one block of rows at a time into the caller's
block buffer (the whole planes in one block on every grid up to 128^2,
and always for the L^1 norm, whose sum keeps its order). So ``src/`` names
no inverse FFT anywhere else.

Retired names stay retired: the package, the demos and the benchmark
name none of ``RETIRED``. A state is its (psi, a) potentials, and
potentials are the only way in: the package has no inverse curl map from
four components (``_potentials``), so no run path goes through the round
trip that once made a run depend on its sample cadence; the one inverse
curl map is the tests' oracle ``reference.check_components``. And the
trajectory alone decides which states of a run it keeps, so ``run`` has
no switch for it (``keep_states``) and the trajectory no second one
(``keeps_states``).

A derived field of ``SpectralGrid``, a ``field(init=False)``, is read as
an attribute by at least two modules of ``src/mhd2d``, as the grid's own
rule says: a table only one caller multiplies by is built by that caller.
A read counts by the attribute's name alone, so an attribute of that name
on another object counts too.

Nothing outlives its caller at module level: ``src/`` makes no weak
dictionary and no ``functools`` cache at module scope (a run's stepper
builds every table it multiplies by), and a fresh import of the package,
as the benchmark makes five times in one process, frees the previous
import's classes and functions.

No command imports ``numpy.ma``, which adds about 2 MB to a fresh process:
``np.median`` reaches it through its NaN check and ``np.unique`` through
its 1-D path, so ``diagnostics._median`` and the lemma scan's xi1 grid take
the same bytes from a sort. Six commands run in one child process, as other
tests of this suite may have imported ``numpy.ma`` already.

A command's inputs are resolved in one place: in ``src/mhd2d/cli.py`` only
``main`` names ``typed_config`` and ``_tolerances`` or holds the string
``"output.dir"``, so each command takes its typed config, tolerances and
output directory as arguments, and a step that must see every command's
resolved inputs, such as a run manifest, reads them in ``main``. A name or
attribute node counts, called or not; the definition and the import of a
name do not.

The output has one layer. Only ``artifacts.atomic_open`` names
``makedirs`` or ``mkdir``, so the first file a command writes makes its
directory and a command that stops before it leaves none. And ``.17g``
appears in one string of ``src/``, ``cli._write_csv``'s format, so every
CSV number is written by one rule; a docstring does not count.
"""

import ast
import json
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from mhd2d import cli, diagnostics
from reference import package_env

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
        for line, name in _unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_reports_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\nimport os\nimport numpy as np\n"
                   "from json import dump, loads\nprint(np.pi, loads)\n", encoding="utf-8")
    assert _unused_imports(mod) == [(2, "os"), (4, "dump")]


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _name_counts(tree):
    """Two counters of what ``tree`` names: ``names`` counts name, attribute
    and alias nodes and identifier strings, ``attrs`` (the way to name a
    method) attribute nodes and the last part of dotted strings."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.fullmatch(node.value):
                names[node.value] += 1
            elif _DOTTED.fullmatch(node.value):
                attrs[node.value.rsplit(".", 1)[1]] += 1
    return names, attrs


def _parse(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}


def _unreached(modules, users):
    """``file:line name`` of each public definition in ``modules`` that no
    file of ``users`` names outside the definition itself."""
    trees = _parse({*modules, *users})
    names, attrs = Counter(), Counter()
    for path in users:
        n, a = _name_counts(trees[path])
        names += n
        attrs += a
    found = []
    for path in modules:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            defs = [(node, node.name, 0)]
            if isinstance(node, ast.ClassDef):
                defs += [(m, f"{node.name}.{m.name}", 1) for m in node.body
                         if isinstance(m, ast.FunctionDef) and m.name[0] != "_"]
            for d, label, method in defs:
                own = _name_counts(d)[method][d.name] if path in users else 0
                if (attrs if method else names)[d.name] <= own:
                    found.append(f"{path.name}:{d.lineno} {label}")
    return found


def _scanned():
    """The package's modules, and the code users run: the package, the
    demos, the benchmark and the acceptance gates."""
    modules = sorted((ROOT / "src" / "mhd2d").glob("*.py"))
    users = modules + sorted((ROOT / "demos").rglob("*.py"))
    users += sorted((ROOT / "bench").rglob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    return modules, users


def test_every_public_name_has_a_caller_outside_the_tests():
    found = _unreached(*_scanned())
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


def test_scan_reaches_a_method_only_through_attributes(tmp_path):
    mod, user = tmp_path / "mod.py", tmp_path / "user.py"
    mod.write_text("class Grid:\n    def x(self):\n        pass\n"
                   "    def wrapped(self):\n        pass\n"
                   "    def called(self):\n        return self.called()\n", encoding="utf-8")
    user.write_text("import mod\nx = 'x'.replace('x', 'y')\nprint(x, mod.Grid())\n"
                    "WRAPS = (('mod', 'Grid.wrapped'),)\n", encoding="utf-8")
    assert _unreached([mod], [mod, user]) == ["mod.py:2 Grid.x", "mod.py:6 Grid.called"]


def _calls(trees):
    """For each called name, the calls that pass arguments to it, each as
    (positions filled, keywords): a ``*`` forward fills every position,
    and a ``**`` forward shows as the keyword None."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                star = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(getattr(node.func, "id", None) or node.func.attr, []).append(
                    (float("inf") if star else len(node.args), {k.arg for k in node.keywords}))
    return calls


def _optional_params(node, bound):
    """(name, position) of each parameter of ``node`` that has a default,
    counting positions after ``self`` when ``bound``; None for a
    keyword-only one."""
    a = node.args
    pos = (a.posonlyargs + a.args)[bound:]
    found = [(p.arg, i) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
    return found + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _unpassed(modules, users):
    """``file:line name(param)`` of each optional parameter of a function,
    a method or a class ``__init__`` in ``modules`` that no call of
    ``users`` passes."""
    trees = _parse({*modules, *users})
    calls = _calls(trees[path] for path in users)
    found = []
    for path in modules:
        for node in trees[path].body:
            defs = [(node, node.name, node.name, 0)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                    callee = node.name if m.name == "__init__" else m.name
                    defs.append((m, f"{node.name}.{m.name}", callee, int(not static)))
            for d, label, callee, bound in defs:
                for name, i in _optional_params(d, bound):
                    if not any((i is not None and i < npos) or name in kws or None in kws
                               for npos, kws in calls.get(callee, ())):
                        found.append(f"{path.name}:{d.lineno} {label}({name})")
    return found


def test_every_optional_parameter_is_passed_outside_the_tests():
    found = _unpassed(*_scanned())
    assert not found, "optional parameters only tests set:\n" + "\n".join(found)


def test_scan_reports_each_unpassed_parameter(tmp_path):
    mod, user = tmp_path / "mod.py", tmp_path / "user.py"
    mod.write_text("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                   "def g(a=1, *, b=2):\n    pass\n"
                   "def h(a=1, *, b=2):\n    pass\n"
                   "class Box:\n    def __init__(self, a, b=1):\n        pass\n"
                   "    def put(self, a=1, b=2):\n        pass\n"
                   "    @staticmethod\n    def make(a=1):\n        pass\n", encoding="utf-8")
    user.write_text("import mod\nmod.f(0, 1, e=5)\nmod.f(0, c=2)\n"
                    "def wrap(*args, **kwargs):\n    return mod.g(*args, **kwargs)\n"
                    "mod.h(b=3)\nbox = mod.Box(0)\nbox.put(1)\n"
                    "mod.Box.make(2)\n", encoding="utf-8")
    assert _unpassed([mod], [mod, user]) == [
        "mod.py:1 f(d)", "mod.py:5 h(a)", "mod.py:8 Box.__init__(b)", "mod.py:10 Box.put(b)",
    ]


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


# every physical-space plane of the package comes from one inverse transform,
# a column ``ifftn`` and a row ``irfftn``
INVERSE_FFT_NAMES = {"ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn"}
THE_INVERSE = ("spectral.py", "to_physical")
ITS_PASSES = {"ifftn", "irfftn"}


def _inverse_ffts(path):
    """``(line, name)`` of each inverse FFT name in ``path`` but the two
    passes of the top-level ``to_physical`` of a ``spectral.py``: a name or
    attribute node, an imported name or a string constant that is exactly
    the name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    allowed = {id(n) for node in tree.body
               if isinstance(node, ast.FunctionDef) and (path.name, node.name) == THE_INVERSE
               for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in INVERSE_FFT_NAMES and (id(node) not in allowed or name not in ITS_PASSES):
            found.append((node.lineno, name))
    return sorted(found)


def test_src_has_one_inverse_transform():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, name in _inverse_ffts(path)
    ]
    assert not found, "inverse FFTs outside spectral.to_physical:\n" + "\n".join(found)


def test_scan_reports_each_inverse_fft(tmp_path):
    spectral, other = tmp_path / "spectral.py", tmp_path / "other.py"
    body = ('"""Uses irfft2 in a docstring only."""\nimport numpy as np\n'
            "from numpy.fft import ifft2\n"
            "def to_physical(a):\n    return np.fft.irfftn(np.fft.ifftn(a)) + np.fft.irfft2(a)\n"
            "def full(a):\n    return np.fft.irfft2(a), getattr(np.fft, 'ifft')(a)\n"
            "class Box:\n    def to_physical(self, a):\n        return np.fft.irfft(a)\n")
    spectral.write_text(body, encoding="utf-8")
    other.write_text(body, encoding="utf-8")
    tail = [(3, "ifft2"), (5, "irfft2"), (7, "ifft"), (7, "irfft2"), (10, "irfft")]
    assert _inverse_ffts(spectral) == tail
    assert _inverse_ffts(other) == sorted([(5, "ifftn"), (5, "irfftn")] + tail)


# names of code that is gone and must not come back
RETIRED = ("_potentials", "keep_states", "keeps_states")


def _retired_names(path):
    """``(line, name)`` of each name of ``RETIRED`` in ``path``: a
    definition, a parameter or keyword argument, a name or attribute node,
    an imported name or a string constant that is exactly the name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, (ast.arg, ast.keyword)):
            name = node.arg
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in RETIRED:
            found.append((node.lineno, name))
    return sorted(found)


def test_components_come_in_through_one_door():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for top in ("src", "demos", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in _retired_names(path)
    ]
    assert not found, "retired names:\n" + "\n".join(found)


def test_scan_reports_each_curl_map_inversion(tmp_path):
    path = tmp_path / "spectral.py"
    path.write_text('"""Names _potentials and keep_states in a docstring only."""\n'
                    "def _potentials(g, u):\n    return u\n"
                    "class SpectralState:\n    def from_components(g, u):\n"
                    "        return _potentials(g, u)\n"
                    "    def u(self):\n        return self._potentials(0)\n"
                    "from spectral import _potentials as p\n"
                    "def load(g):\n    return getattr(g, '_potentials')(g)\n"
                    "class _potentials:\n    pass\n"
                    "def run(cfg, keep_states=False):\n    return cfg\n"
                    "run(0, keep_states=True)\n"
                    "class Trajectory:\n    @property\n    def keeps_states(self):\n"
                    "        return self.keeps_states\n", encoding="utf-8")
    assert _retired_names(path) == [(2, "_potentials"), (6, "_potentials"),
                                    (8, "_potentials"), (9, "_potentials"),
                                    (11, "_potentials"), (12, "_potentials"),
                                    (14, "keep_states"), (16, "keep_states"),
                                    (19, "keeps_states"), (20, "keeps_states")]



def _callee(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _plain_records(path):
    """``(line, name)`` of each frozen ``@dataclass`` in ``path`` with no
    ``__post_init__`` and no ``field(...)`` call."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        frozen = any(isinstance(d, ast.Call) and _callee(d) == "dataclass"
                     and any(k.arg == "frozen" and getattr(k.value, "value", False)
                             for k in d.keywords)
                     for d in node.decorator_list)
        post_init = any(isinstance(m, ast.FunctionDef) and m.name == "__post_init__"
                        for m in node.body)
        field = any(isinstance(n, ast.Call) and _callee(n) == "field" for n in ast.walk(node))
        if frozen and not post_init and not field:
            found.append((node.lineno, node.name))
    return found


def test_plain_value_records_are_named_tuples():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted((ROOT / "src" / "mhd2d").glob("*.py"))
        for line, name in _plain_records(path)
    ]
    assert not found, ("frozen dataclasses with no __post_init__ or field(), "
                       "which should be typing.NamedTuple:\n" + "\n".join(found))


def test_scan_reports_each_plain_record(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import dataclasses\nfrom dataclasses import dataclass, field\n"
                   "from typing import NamedTuple\n"
                   "@dataclass(frozen=True)\nclass Plain:\n    x: float\n"
                   "    def twice(self):\n        return 2 * self.x\n"
                   "@dataclasses.dataclass(frozen=True, eq=False)\nclass Dotted:\n    x: float\n"
                   "@dataclass(frozen=True)\nclass Checked:\n    x: float\n"
                   "    def __post_init__(self):\n        pass\n"
                   "@dataclass(frozen=True)\nclass Derived:\n"
                   "    x: float = field(default=0.0, repr=False)\n"
                   "@dataclass\nclass Mutable:\n    x: float\n"
                   "@dataclass(frozen=False)\nclass Thawed:\n    x: float\n"
                   "class Record(NamedTuple):\n    x: float\n", encoding="utf-8")
    assert _plain_records(mod) == [(5, "Plain"), (10, "Dotted")]


def _lonely_fields(cls, modules):
    """``name: modules`` of each ``field(init=False)`` of the class ``cls``
    in ``modules`` that fewer than two of ``modules`` read as an attribute."""
    trees = _parse(modules)
    fields = [s.target.id for tree in trees.values() for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == cls
              for s in node.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.value, ast.Call)
              and _callee(s.value) == "field"
              and any(k.arg == "init" and getattr(k.value, "value", None) is False
                      for k in s.value.keywords)]
    found = []
    for name in fields:
        readers = [path.name for path, tree in trees.items()
                   if any(isinstance(n, ast.Attribute) and n.attr == name
                          and isinstance(n.ctx, ast.Load) for n in ast.walk(tree))]
        if len(readers) < 2:
            found.append(f"{name}: {', '.join(readers) or 'no module'}")
    return found


def test_every_grid_field_is_read_by_two_modules():
    # a table only one module reads is built by that module
    found = _lonely_fields("SpectralGrid", sorted((ROOT / "src" / "mhd2d").glob("*.py")))
    assert not found, "SpectralGrid fields fewer than two modules read:\n" + "\n".join(found)


def test_scan_reports_each_lonely_field(tmp_path):
    grid, user = tmp_path / "grid.py", tmp_path / "user.py"
    grid.write_text("from dataclasses import dataclass, field\n"
                    "@dataclass(frozen=True)\nclass Grid:\n    n: int\n"
                    "    shared: float = field(init=False)\n"
                    "    mine: float = field(init=False, repr=False)\n"
                    "    theirs: float = field(init=False)\n"
                    "    unread: float = field(init=False)\n"
                    "    given: float = field(default=0.0)\n"
                    "    def __post_init__(self):\n"
                    "        object.__setattr__(self, 'mine', self.shared)\n"
                    "def total(g):\n    return g.mine + g.given\n"
                    "class Other:\n    alone: float = field(init=False)\n", encoding="utf-8")
    user.write_text("def use(g, h):\n    h.unread = g.theirs + g.shared + g.given\n",
                    encoding="utf-8")
    assert _lonely_fields("Grid", [grid, user]) == [
        "mine: grid.py", "theirs: user.py", "unread: no module"]


# what makes a cache object at module scope: a weak dictionary, or functools'
# memoizing decorators, named or called
CACHE_NAMES = {"WeakKeyDictionary", "WeakValueDictionary", "lru_cache", "cache"}


def _module_caches(path):
    """``(line, name)`` of each name or attribute in ``CACHE_NAMES`` that
    ``path`` reads at module scope: anywhere but inside a function body or
    a lambda, so decorators and class bodies count."""
    todo, found = [ast.parse(path.read_text(encoding="utf-8"), str(path))], []
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            heads = node.decorator_list + node.args.defaults + node.args.kw_defaults
            todo += [n for n in heads if n is not None]  # a keyword-only default may be absent
            continue
        if isinstance(node, ast.Lambda):
            continue
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(getattr(node, "ctx", None), ast.Load) and name in CACHE_NAMES:
            found.append((node.lineno, name))
        todo += ast.iter_child_nodes(node)
    return sorted(found)


def test_src_holds_no_module_level_cache():
    # a module-level cache keeps what it holds past its one caller, once per
    # import of the package; the run's stepper builds every table it needs
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, name in _module_caches(path)
    ]
    assert not found, "module-level caches in src:\n" + "\n".join(found)


def test_scan_reports_each_module_level_cache(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import functools, weakref\nfrom functools import cache, lru_cache\n"
                   "from weakref import WeakValueDictionary\n"
                   "HELD = weakref.WeakKeyDictionary()\n"
                   "@functools.lru_cache(maxsize=1)\ndef tables(n):\n"
                   "    local = weakref.WeakKeyDictionary()\n    return local\n"
                   "@cache\ndef weights(n, *, sizes, memo=WeakValueDictionary()):\n"
                   "    return functools.cache(n)\n"
                   "class Grid:\n    SEEN = weakref.WeakValueDictionary()\n"
                   "    @lru_cache\n    def table(self):\n        return lambda: cache\n"
                   "cache = {}\nmemo = lambda f: functools.lru_cache(f)\n", encoding="utf-8")
    assert _module_caches(mod) == [
        (4, "WeakKeyDictionary"), (5, "lru_cache"), (9, "cache"), (10, "WeakValueDictionary"),
        (13, "WeakValueDictionary"), (14, "lru_cache"),
    ]


# what resolves a command's inputs, and the one function that may name it
RESOLVERS = {"typed_config", "_tolerances"}
RESOLVED_KEYS = {"output.dir"}


def _resolved_outside_main(path):
    """``(line, where, name)`` of each name or attribute node of ``RESOLVERS``
    and each string constant of ``RESOLVED_KEYS`` in ``path`` outside its
    top-level function ``main``; ``where`` is the enclosing top-level
    definition, or ``<module>``."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        where = getattr(top, "name", "<module>")
        if where == "main" and isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in RESOLVERS:
                found.append((node.lineno, where, name))
            elif isinstance(node, ast.Constant) and node.value in RESOLVED_KEYS:
                found.append((node.lineno, where, node.value))
    return sorted(found)


def test_only_main_resolves_a_commands_inputs():
    found = [f"cli.py:{line} {where} names {name}"
             for line, where, name in _resolved_outside_main(ROOT / "src" / "mhd2d" / "cli.py")]
    assert not found, "resolved outside main:\n" + "\n".join(found)


def test_scan_reports_each_resolution_outside_main(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from config import typed_config\nimport config\n"
                   "def _tolerances(pairs, defaults):\n    return dict(defaults)\n"
                   "def cmd_fit(args, raw):\n    typed = typed_config('fit', raw)\n"
                   "    return typed, _tolerances(args.tolerance, {})\n"
                   "class Runner:\n    def run(self, raw):\n"
                   "        return config.typed_config('fit', raw)\n"
                   "RESOLVE = _tolerances\nNAME = 'typed_config'\n"
                   "def main(argv):\n    def inner(raw):\n"
                   "        return typed_config('fit', raw)\n"
                   "    return inner({}), _tolerances(argv, {}), {}.get('output.dir')\n"
                   "def cmd_run(args, typed):\n"
                   "    return args.out or typed.get('output.dir', 'output.dir.bak')\n"
                   "KEY = 'output.dir'\n", encoding="utf-8")
    assert _resolved_outside_main(mod) == [
        (6, "cmd_fit", "typed_config"), (7, "cmd_fit", "_tolerances"),
        (10, "Runner", "typed_config"), (11, "<module>", "_tolerances"),
        (18, "cmd_run", "output.dir"), (19, "<module>", "output.dir")]


def _docstrings(tree):
    """The string constants of ``tree`` that are docstrings."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, kinds) and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


DIRECTORY_MAKERS = {"makedirs", "mkdir"}


def _output_rules(path):
    """``(line, where, what)`` of each name or attribute node of
    ``DIRECTORY_MAKERS`` and each string constant holding ``.17g`` outside
    a docstring in ``path``; ``where`` is the enclosing top-level
    definition, or ``<module>``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    docs, found = _docstrings(tree), []
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in DIRECTORY_MAKERS:
                found.append((node.lineno, where, name))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and ".17g" in node.value and id(node) not in docs):
                found.append((node.lineno, where, ".17g"))
    return sorted(found)


def test_one_place_makes_the_directory_and_formats_a_float():
    found = [(path.name, where, what) for path in sorted((ROOT / "src").rglob("*.py"))
             for _, where, what in _output_rules(path)]
    assert found == [("artifacts.py", "atomic_open", "makedirs"),
                     ("cli.py", "_write_csv", ".17g")], found


def test_scan_reports_each_directory_maker_and_float_format(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text('"""Rows as %.17g."""\nimport os\nfrom os import makedirs\n'
                   'def fmt(x):\n    """x as .17g"""\n    return format(x, ".17g")\n'
                   "def row(x, p):\n    os.makedirs('out')\n    p.mkdir()\n"
                   "    return [f'{x:.17g}', '%.17g' % x, '{:.16g}'.format(x)]\n"
                   'class Writer:\n    """Each float as .17g."""\n    SPEC = ".17g"\n'
                   "MAKE = makedirs\n", encoding="utf-8")
    assert _output_rules(mod) == [
        (6, "fmt", ".17g"), (8, "row", "makedirs"), (9, "row", "mkdir"),
        (10, "row", ".17g"), (10, "row", ".17g"), (13, "Writer", ".17g"),
        (14, "<module>", "makedirs")]


REIMPORT = """
import gc, importlib, sys, weakref
import mhd2d.cli
from mhd2d import diagnostics, solver, spectral
traj = solver.run(solver.SolverConfig(n1=16, n2=16, dt=0.02, t_end=0.04, data_kind="random"))
held = {name: weakref.ref(obj) for name, obj in (
    ("Trajectory", solver.Trajectory), ("SolverConfig", solver.SolverConfig),
    ("DiagnosticsRecord", diagnostics.DiagnosticsRecord),
    ("SpectralState", spectral.SpectralState), ("SpectralGrid", spectral.SpectralGrid),
    ("run", solver.run))}
del traj, diagnostics, solver, spectral, mhd2d
for name in [m for m in sys.modules if m == "mhd2d" or m.startswith("mhd2d.")]:
    del sys.modules[name]
importlib.import_module("mhd2d.cli")
gc.collect()
print(sorted(name for name, ref in held.items() if ref() is not None))
"""


def test_a_fresh_import_frees_the_previous_one():
    # the benchmark imports the package afresh in one process; with postponed
    # annotations typing's cache of Optional[SpectralState], List[...] and
    # Sequence[...] holds none of the previous import's classes, whose module
    # dicts would stay alive with them. A child process, so this suite's
    # imports stay as they are
    proc = subprocess.run([sys.executable, "-c", REIMPORT], capture_output=True, text=True,
                          env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout


NO_MASKED_ARRAYS = """
import json, os, sys
from mhd2d import cli
out = sys.argv[1]
curve = os.path.join(out, "curve.csv")
with open(curve, "w", encoding="utf-8") as fh:
    fh.write("t,value\\n" + "".join(f"{t},{t ** -0.5!r}\\n" for t in range(1, 13)))
run = "n1 = 32\\nn2 = 32\\ndt = 0.05\\nt_end = 0.25\\ndata.kind = random\\n"
configs = {
    "linear-decay": "t.count = 25\\nj = 0\\n",
    "nonlinear-run": run,
    "audit-lemma": "xi1.count = 4\\nt.count = 3\\nsamples = 2\\n",
    "audit-energy": run,
    "audit-embedding": "n1 = 32\\nn2 = 32\\nwidths = 1\\nmodes = 2\\n",
    "fit": f"input = {curve}\\n",
}
seen = [["import", 0, "numpy.ma" in sys.modules]]
for command, text in configs.items():
    path = os.path.join(out, command + ".cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    rc = cli.main([command, "--config", path, "--out", os.path.join(out, command), "--quiet"])
    seen.append([command, rc, "numpy.ma" in sys.modules])
print(json.dumps(seen))
"""


def test_no_command_imports_numpy_ma(tmp_path):
    # each command exits 0 with numpy.ma still unloaded; the first command
    # listed with True is the one that imported it
    proc = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS, str(tmp_path)],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen == [[name, 0, False] for name in ["import", *cli._COMMANDS]], seen


def test_median_and_lemma_grid_take_numpy_bytes(tmp_path, monkeypatch):
    rng = np.random.default_rng(37)
    for n in (0, 1, 2, 3, 4, 7, 10, 101, 1000):
        for x in (rng.random(n), 1e3 * rng.standard_normal(n), 0.1 * rng.integers(0, 4, n)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the mean of no values
                got, want = diagnostics._median(x), np.median(x)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (n, got, want)

    grids = []

    def scan(xi1, times, **kw):  # the grid, then an empty summary: nothing to cap
        grids.append(xi1)
        return {}, []

    monkeypatch.setattr(cli, "scan_lemma_bounds", scan)
    # counts of 0, odd and even; grids that hit the fixed points and ones that miss
    cases = [(0.005, 2.0, 100), (0.25, 0.5, 0), (0.25, 0.5, 3), (0.25, 0.5, 6), (1e-3, 0.5, 2)]
    cases += [(lo, lo + float(rng.uniform(1e-6, 2.0)), int(rng.integers(0, 60)))
              for lo in rng.uniform(1e-4, 0.6, 6).tolist()]
    cfg = tmp_path / "lemma.cfg"
    for lo, hi, count in cases:
        cfg.write_text(f"xi1.min = {lo!r}\nxi1.max = {hi!r}\nxi1.count = {count}\n"
                       "t.count = 2\n", encoding="utf-8")
        argv = ["audit-lemma", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]
        assert cli.main(argv) == 0
        want = np.unique(np.concatenate([np.linspace(lo, hi, count),
                                         [1e-3, 0.25, 0.5 - 1e-6, 0.5, 0.5 + 1e-6]]))
        got = grids[-1]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (lo, hi, count)
