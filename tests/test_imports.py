"""No engine module keeps a module-level import it never uses, and no
definition that nothing refers to.

Static checks with the standard library's ``ast``:

- every name bound by a top-level ``import`` or ``from ... import`` in
  ``src/ealgebra/`` (the package ``__init__``, which re-exports, aside)
  must occur as a name somewhere else in its module;
- every top-level function or class, every public method and every
  public name a top-level assignment binds in ``src/ealgebra/`` must be
  referred to outside its own body: as a name, an attribute or an
  imported name in the Python files of ``src/``, ``tests/`` or
  ``perfbench/``, or as a word in ``README.md`` or the benchmark's JSON
  files.  A private name that a top-level assignment binds must be read
  in its own module.  The check goes by name only, so a method whose name
  some other object also uses passes.

A fresh interpreter also checks what ``import ealgebra`` loads: not
``dataclasses``, and not the ``inspect`` that it imports.

A private name one engine module imports from another
(``from .x import _name``) must be listed, with its reason, in
``PRIVATE_IMPORTS``: a decision should live behind one module, so a new
reach-in across modules needs a stated reason.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ealgebra"

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


# Definitions kept though nothing refers to them, as (module, name): reason.
KEPT_DEFINITIONS: dict[tuple[str, str], str] = {}


def _definitions(tree: ast.Module):
    """``(name, node, local)`` per definition; ``local`` when only its own
    module may refer to it (a private name bound by an assignment)."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt, False
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield t.id, stmt, t.id.startswith("_")
        if isinstance(stmt, ast.ClassDef):
            yield from (
                (m.name, m, False) for m in stmt.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            )


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def dead_definitions(modules: list[Path], sources: list[Path], texts: list[Path]) -> list[str]:
    """``module.name`` of each definition in ``modules`` that no Python file
    of ``sources`` refers to outside the definition itself and no word of
    ``texts`` names; a private name bound by an assignment counts as
    referred to only by its own module."""
    where: dict[str, list[tuple[Path, int]]] = {}
    for path in sources:
        for name, line in _references(ast.parse(path.read_text(encoding="utf-8"))):
            where.setdefault(name, []).append((path, line))
    words = {
        w for path in texts for w in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    }
    dead = []
    for path in modules:
        for name, node, local in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            refs = [(p, line) for p, line in where.get(name, ()) if p == path or not local]
            outside = any(
                p != path or not node.lineno <= line <= node.end_lineno for p, line in refs
            )
            documented = name in words and not local
            if not (outside or documented or (path.stem, name) in KEPT_DEFINITIONS):
                dead.append(f"{path.stem}.{name}")
    return dead


def test_every_definition_is_referred_to():
    sources = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    texts = [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.json"))]
    assert dead_definitions(sorted(PACKAGE.glob("*.py")), sources, texts) == []


def test_the_check_sees_a_dead_definition(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "def documented():\n    pass\n\n"
        "class Box:\n"
        "    def opened(self):\n        return used()\n\n"
        "    def closed(self):\n        pass\n\n"
        "    def _private(self):\n        pass\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from sample import Box\nBox().opened()\n")
    readme = tmp_path / "README.md"
    readme.write_text("Call `documented()` first.\n")
    assert dead_definitions([module], [module, caller], [readme]) == [
        "sample.recursive", "sample.closed",
    ]


def test_the_check_sees_a_dead_constant(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "_USED = 1\n_DEAD = 2\n_EXPORTED = 3\nPUBLIC = 4\nDOCUMENTED = 5\n"
        "LONELY: int = 6\n__all__ = []\n\n"
        "def read():\n    return _USED\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from sample import _EXPORTED, PUBLIC, read\n")
    readme = tmp_path / "README.md"
    readme.write_text("Set `DOCUMENTED` and `_DEAD` first.\n")
    assert dead_definitions([module], [module, caller], [readme]) == [
        "sample._DEAD", "sample._EXPORTED", "sample.LONELY",
    ]


# Keyword options kept though no call in the repository sets them, as
# (function, parameter): reason.
KEPT_OPTIONS: dict[tuple[str, str], str] = {
    ("eval_term", "oracle"): "tests/test_compiler.py passes it as outcome(fn, **call)",
    ("eval_term", "externals"): "tests/test_compiler.py passes it as outcome(fn, **call)",
    ("eval_guard", "oracle"): "tests/test_compiler.py passes it as outcome(fn, **call)",
    ("eval_guard", "externals"): "tests/test_compiler.py passes it as outcome(fn, **call)",
}


def _options(function: ast.FunctionDef):
    """``(parameter, position)`` per parameter with a default; the
    position is None for a keyword-only one."""
    positional = function.args.posonlyargs + function.args.args
    for i, arg in enumerate(positional[len(positional) - len(function.args.defaults):]):
        yield arg.arg, len(positional) - len(function.args.defaults) + i
    for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _sets(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return position is not None and (starred or len(call.args) > position)


def unset_options(init: Path, sources: list[Path]) -> list[str]:
    """``name(parameter=)`` for each parameter with a default of each
    function the package ``init`` exports that no call of that name in
    ``sources`` sets, by keyword, by position or through ``*``/``**``."""
    exported = {}
    for stmt in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            module = ast.parse((init.parent / f"{stmt.module}.py").read_text(encoding="utf-8"))
            defined = {f.name: f for f in module.body if isinstance(f, ast.FunctionDef)}
            exported.update((a.name, defined[a.name]) for a in stmt.names if a.name in defined)
    calls: dict[str, list[ast.Call]] = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return [
        f"{name}({parameter}=)"
        for name, function in exported.items()
        for parameter, position in _options(function)
        if (name, parameter) not in KEPT_OPTIONS
        and not any(_sets(call, parameter, position) for call in calls.get(name, ()))
    ]


def test_every_keyword_option_is_set():
    sources = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unset_options(PACKAGE / "__init__.py", sources) == []


def test_the_check_sees_an_option_no_call_sets(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .sample import Box, f, g, h\n")
    (package / "sample.py").write_text(
        "class Box:\n    def __init__(self, lid=None):\n        pass\n\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
        "def g(a=1, *, b=2):\n    pass\n\n"
        "def h(a=1, *, b=2):\n    pass\n\n"
        "def hidden(a=1):\n    pass\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text(
        "import pkg\nfrom pkg import f, g\n"
        "f(0, 1, d=5)\npkg.g(*[2])\nh(**{})\n"
    )
    assert unset_options(package / "__init__.py", [caller]) == [
        "f(c=)", "f(e=)", "g(b=)",
    ]


# Private names an engine module imports from another, as
# (importer, module, name): reason.
PRIVATE_IMPORTS: dict[tuple[str, str, str], str] = {
    ("certificate", "distributed", "_require_spec"):
        "a certificate refuses a single-agent program as the distributed entry points do",
    ("certificate", "stateio", "_read_state"):
        "a sigma block is a state file whose errors name the certificate's lines",
    ("distributed", "runner", "_Effect"):
        "a generated run and the independence pass order moves by the effects search uses",
    ("distributed", "runner", "_footprints_conflict"):
        "two moves conflict for a partial run exactly when they do for the sleep sets",
    ("runner", "evaluator", "_parsed"):
        "enumerate refuses a predicate that is no parsed guard as the evaluator does",
    ("runner", "state", "_flat_key"):
        "a text trace lists conflicts in the order update sets sort their locations",
}


def private_imports(package: Path) -> set[tuple[str, str, str]]:
    """``(importer, module, name)`` for each private name a module of
    ``package`` imports from a sibling, at any depth of the module."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update(
                    (path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")
                )
    return found


def test_every_private_import_across_modules_is_listed():
    assert private_imports(PACKAGE) == set(PRIVATE_IMPORTS)


def test_the_check_sees_a_private_import(tmp_path):
    (tmp_path / "sample.py").write_text(
        "from . import helper\nfrom .helper import Public, _private\n\n"
        "def late():\n    from .other import _hidden\n"
    )
    assert private_imports(tmp_path) == {
        ("sample", "helper", "_private"), ("sample", "other", "_hidden"),
    }


def _modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    script = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    return set(json.loads(done.stdout))


def test_importing_the_package_loads_no_dataclasses():
    """``import ealgebra`` loads neither ``dataclasses`` nor the ``inspect``
    that it imports."""
    added = _modules_after("import ealgebra") - _modules_after("pass")
    assert "ealgebra.syntax" in added
    assert not added & {"dataclasses", "inspect"}
