"""Every import in the package, the tests, the demos and the benchmark is used.

An AST scan: an imported name counts as used when it appears as a name
anywhere in its module. The re-exports of ``__init__.py`` and
``__future__`` imports are skipped.
"""

import ast
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
