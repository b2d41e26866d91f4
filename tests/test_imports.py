"""No engine module keeps a module-level import it never uses.

A static check with the standard library's ``ast``: every name bound by a
top-level ``import`` or ``from ... import`` in ``src/ealgebra/`` (the
package ``__init__``, which re-exports, aside) must occur as a name
somewhere else in its module.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ealgebra"

# Imports kept on purpose, as (module, name).
KEPT = {
    # perfbench/tests/test_perfbench.py::test_tracer_wraps_every_importer_and_restores
    # reads distributed.updates to see the tracer wrap a name in an importer.
    ("distributed", "updates"),
}


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound += [a.asname or a.name for a in stmt.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used and (path.stem, name) not in KEPT]


def test_no_unused_module_level_imports():
    found = {
        path.stem: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path))
    }
    assert found == {}


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("import os\nfrom typing import Callable, Mapping\nx: Mapping = {}\n")
    assert unused_imports(module) == ["os", "Callable"]
