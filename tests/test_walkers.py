"""Golden output of every syntax walker over seeded surface rules.

Each line of ``golden/walkers.txt`` describes one rule from
``genrules.gen_surface_rule``: its variable analyses, its syntactic
predicates, its function names, the printed result of desugaring (plain
and with the Active notation), of alpha-renaming and of one
substitution, and the external-nesting verdict.  The file is compared
byte for byte under two hash seeds, so a walker whose output depends on
set iteration order fails here.  Regenerate it with
``PYTHONPATH=src python tests/test_walkers.py`` only when an output is
meant to change.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "walkers.txt"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from genrules import SURFACE_EXTERNALS, gen_surface_rule  # noqa: E402

from ealgebra.errors import ParseError  # noqa: E402
from ealgebra.parser import _check_external_nesting  # noqa: E402
from ealgebra.syntax import (  # noqa: E402
    App,
    Var,
    binder_occurrences,
    bound_vars,
    desugar,
    format_rule,
    free_vars,
    has_choose,
    has_import,
    is_basic,
    is_core,
    is_perspicuous,
    make_perspicuous,
    subst,
)
from ealgebra.vocabulary import fun_of  # noqa: E402

RULES = 300
AVOID = frozenset({"x", "f", "c"})
SUBST = {"w": App("d"), "x": App("f", (Var("y"),))}


def surface_rules() -> list:
    return [gen_surface_rule(random.Random(seed), 1 + seed % 3) for seed in range(RULES)]


def _external_verdict(rule) -> str:
    try:
        _check_external_nesting(rule, SURFACE_EXTERNALS)
    except ParseError as exc:
        return str(exc)
    return "ok"


def describe(rule) -> str:
    core = desugar(rule)
    active = desugar(rule, active=True)
    return json.dumps(
        {
            "free": sorted(free_vars(rule)),
            "bound": sorted(bound_vars(rule)),
            "binders": binder_occurrences(rule),
            "core_binders": binder_occurrences(core),
            "flags": [is_core(rule), is_basic(rule), has_choose(rule), has_import(rule)],
            "core_flags": [is_core(core), is_basic(core), has_choose(core), has_import(core)],
            "perspicuous": [is_perspicuous(rule), is_perspicuous(core, AVOID)],
            "fun": sorted(fun_of(rule)),
            "active_fun": sorted(fun_of(active)),
            "desugar": format_rule(core),
            "desugar_active": format_rule(active),
            "perspicuous_core": format_rule(make_perspicuous(core, AVOID)),
            "perspicuous_surface": format_rule(make_perspicuous(rule, AVOID)),
            "subst": format_rule(subst(rule, SUBST)),
            "external": _external_verdict(rule),
        },
        ensure_ascii=True,
    )


def render() -> str:
    return "".join(describe(rule) + "\n" for rule in surface_rules())


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_walkers_match_golden(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, __file__, "--print"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    assert done.stdout == GOLDEN.read_text(encoding="utf-8")


def test_unchanged_nodes_are_not_copied():
    from ealgebra.syntax import nodes, parts, rebuild

    for rule in surface_rules():
        for node in nodes(rule):
            assert rebuild(node, *parts(node)) is node
        core = desugar(rule)
        assert desugar(core) is core
        renamed = make_perspicuous(core, AVOID)
        assert make_perspicuous(renamed, AVOID) is renamed
        assert subst(renamed, {"unused": App("d")}) is renamed


def test_surface_generator_covers_the_language():
    from ealgebra.syntax import (
        Atom, Block, BoolGuard, Case, Choose, Cond, Decl, Duplicate, Extend, Import,
        QuantGuard, TermRange, UniverseRange, UpdateInstr,
    )

    seen: set = set()

    def walk(node):
        if node is None or isinstance(node, (str, bool)):
            return
        if isinstance(node, tuple):
            for x in node:
                walk(x)
            return
        if isinstance(node, BoolGuard):
            seen.add(("op", node.op))
        if isinstance(node, QuantGuard):
            seen.add(("quant", node.kind))
        if isinstance(node, (Import, Choose, Extend)) and len(node.vars) > 1:
            seen.add(("multi", type(node).__name__))
        if isinstance(node, Case) and node.else_rule is not None:
            seen.add("case-else")
        if isinstance(node, Choose) and node.qualifier is not None:
            seen.add("qualified")
        if getattr(node, "fname", None) == "Active":
            seen.add(("active", type(node).__name__))
        seen.add(type(node).__name__)
        for name in node._fields:
            walk(getattr(node, name))

    rules = surface_rules()
    for rule in rules:
        walk(rule)
    expected = {
        cls.__name__
        for cls in (UpdateInstr, Block, Cond, Import, Choose, Decl, Duplicate, Extend,
                    Case, Atom, BoolGuard, QuantGuard, UniverseRange, TermRange)
    }
    expected |= {("op", op) for op in ("and", "or", "not", "implies")}
    expected |= {("quant", "exists"), ("quant", "forall")}
    expected |= {("multi", "Import"), ("multi", "Choose"), ("multi", "Extend")}
    expected |= {"case-else", "qualified", ("active", "App"), ("active", "UpdateInstr")}
    assert expected <= seen
    verdicts = {_external_verdict(rule).split(": ", 1)[-1] for rule in rules}
    assert verdicts == {
        "ok",
        "external functions cannot be nested",
        "external functions cannot be updated",
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        sys.stdout.write(render())
    else:
        GOLDEN.write_text(render(), encoding="utf-8")
