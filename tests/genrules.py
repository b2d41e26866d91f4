"""Seeded generators for random rules and the states to exercise them on.

Used by the evaluator tests and the acceptance suite: basic rules (update
instructions, blocks, conditionals over a three-element named universe)
for the normal-form check, and choice rules (plain choose binders over
small universes) for comparing the two family semantics.
"""

from __future__ import annotations

import random
from itertools import product

from ealgebra import (
    Element,
    FunctionName,
    State,
    TRUE,
    UNDEF,
    make_vocabulary,
)
from ealgebra.syntax import (
    SKIP,
    TRUE_GUARD,
    App,
    Atom,
    Block,
    BoolGuard,
    Case,
    Choose,
    Cond,
    Decl,
    Duplicate,
    Extend,
    Import,
    QuantGuard,
    TermRange,
    UniverseRange,
    Var,
)

X, Y, Z = Element.named("x"), Element.named("y"), Element.named("z")
ELEMS = (X, Y, Z)

BASIC_VOCAB = make_vocabulary(
    [
        FunctionName("x", 0, is_static=True),
        FunctionName("y", 0, is_static=True),
        FunctionName("z", 0, is_static=True),
        FunctionName("g", 0),
        FunctionName("f", 1),
        FunctionName("r", 1, is_relation=True),
    ]
)

_ATOM_NAMES = ("x", "y", "z", "g", "undef")


def gen_term(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.5:
        return App(rng.choice(_ATOM_NAMES))
    return App("f", (gen_term(rng, depth - 1),))


def gen_bool_term(rng: random.Random):
    pick = rng.random()
    if pick < 0.25:
        return App(rng.choice(("true", "false")))
    if pick < 0.6:
        return App("r", (gen_term(rng, 1),))
    return App("=", (gen_term(rng, 1), gen_term(rng, 1)))


def gen_guard(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.5:
        return Atom(gen_bool_term(rng))
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return BoolGuard("not", (gen_guard(rng, depth - 1),))
    return BoolGuard(op, (gen_guard(rng, depth - 1), gen_guard(rng, depth - 1)))


def gen_update(rng: random.Random):
    subject = rng.choice(("g", "f", "r"))
    if subject == "g":
        return _instr("g", (), gen_term(rng, 1))
    if subject == "f":
        return _instr("f", (gen_term(rng, 1),), gen_term(rng, 1))
    return _instr("r", (gen_term(rng, 1),), gen_bool_term(rng))


def _instr(fname, args, rhs):
    from ealgebra.syntax import UpdateInstr

    return UpdateInstr(fname, args, rhs)


def _block(members):
    """Canonical block: flattened, never a singleton (parser shape)."""
    flat = []
    for m in members:
        if isinstance(m, Block):
            flat.extend(m.rules)
        else:
            flat.append(m)
    if len(flat) == 1:
        return flat[0]
    return Block(tuple(flat))


def gen_basic_rule(rng: random.Random, depth: int = 2):
    """Random basic rule: updates, blocks and conditionals."""
    if depth <= 0:
        return gen_update(rng)
    pick = rng.random()
    if pick < 0.35:
        return gen_update(rng)
    if pick < 0.6:
        return _block(gen_basic_rule(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    clauses = []
    for _ in range(rng.randint(1, 3)):
        clauses.append((gen_guard(rng, 1), gen_basic_rule(rng, depth - 1)))
    if rng.random() < 0.4:
        clauses.append((TRUE_GUARD, gen_basic_rule(rng, depth - 1)))
    return Cond(tuple(clauses))


_CONSTANT_TABLES = {"x": {(): X}, "y": {(): Y}, "z": {(): Z}}


def enumerate_basic_states(names: set[str]):
    """Every state over the generator vocabulary, restricted to the dynamic
    names a rule mentions; untouched names keep defaults."""
    value_pool = ELEMS + (UNDEF,)
    g_options = value_pool if "g" in names else (None,)
    f_options = (
        list(product(value_pool, repeat=len(ELEMS))) if "f" in names else [None]
    )
    r_options = (
        list(product((TRUE, None), repeat=len(ELEMS))) if "r" in names else [None]
    )
    for g_val in g_options:
        for f_row in f_options:
            for r_row in r_options:
                tables = dict(_CONSTANT_TABLES)
                if g_val is not None and g_val != UNDEF:
                    tables["g"] = {(): g_val}
                if f_row is not None:
                    entries = {
                        (e,): v for e, v in zip(ELEMS, f_row) if v != UNDEF
                    }
                    if entries:
                        tables["f"] = entries
                if r_row is not None:
                    entries = {(e,): TRUE for e, v in zip(ELEMS, r_row) if v is TRUE}
                    if entries:
                        tables["r"] = entries
                yield State(BASIC_VOCAB, tables)


# ---------------------------------------------------------------------------
# Choice rules over small universes

A, B, C = Element.named("a"), Element.named("b"), Element.named("c")

CHOICE_VOCAB = make_vocabulary(
    [
        FunctionName("a", 0, is_static=True),
        FunctionName("b", 0, is_static=True),
        FunctionName("c", 0, is_static=True),
        FunctionName("U1", 1, is_relation=True, is_static=True),
        FunctionName("U2", 1, is_relation=True, is_static=True),
        FunctionName("f", 1),
        FunctionName("g", 0),
    ]
)


def choice_state(u1: tuple, u2: tuple) -> State:
    tables = {"a": {(): A}, "b": {(): B}, "c": {(): C}}
    if u1:
        tables["U1"] = {(e,): TRUE for e in u1}
    if u2:
        tables["U2"] = {(e,): TRUE for e in u2}
    return State(CHOICE_VOCAB, tables)


def gen_choice_term(rng: random.Random, scope: list[str]):
    if scope and rng.random() < 0.5:
        return Var(rng.choice(scope))
    return App(rng.choice(("a", "b", "c")))


def gen_choice_rule(rng: random.Random, depth: int, binders_left: int, scope=None):
    """Random rule in the choice language: updates, blocks, conditionals and
    plain (unqualified) choose binders."""
    scope = list(scope or [])
    roll = rng.random()
    if binders_left > 0 and roll < 0.45:
        var = f"v{binders_left}{len(scope)}"
        universe = rng.choice(("U1", "U2"))
        body = gen_choice_rule(rng, depth - 1, binders_left - 1, scope + [var])
        return Choose((var,), universe, None, body)
    if depth <= 0 or roll < 0.7:
        target = rng.choice(("f", "g"))
        if target == "g":
            return _instr("g", (), gen_choice_term(rng, scope))
        return _instr(
            "f", (gen_choice_term(rng, scope),), gen_choice_term(rng, scope)
        )
    if roll < 0.85:
        return _block(
            gen_choice_rule(rng, depth - 1, binders_left if i == 0 else 0, scope)
            for i in range(2)
        )
    guard = Atom(App("=", (gen_choice_term(rng, scope), gen_choice_term(rng, scope))))
    return Cond(
        (
            (guard, gen_choice_rule(rng, depth - 1, binders_left, scope)),
        )
    )


# ---------------------------------------------------------------------------
# Surface rules: every constructor, guard form and range, for walker goldens

SURFACE_BINDERS = ("x", "y", "z", "u")
SURFACE_EXTERNALS = frozenset({"e", "k"})

# (name, arity) of the applications the surface generator draws from; "e"
# and "k" are the external functions, "w" is a variable left free.
_SURFACE_FUNS = (("f", 1), ("e", 1), ("Active", 1), ("not", 1), ("and", 2), ("=", 2))
_SURFACE_CONSTS = ("c", "d", "k", "undef", "Self")


def gen_surface_term(rng: random.Random, scope: list[str], depth: int):
    roll = rng.random()
    if scope and roll < 0.3:
        return Var(rng.choice(scope))
    if roll < 0.36:
        return Var("w")
    if depth <= 0 or roll < 0.6:
        return App(rng.choice(_SURFACE_CONSTS))
    name, arity = rng.choice(_SURFACE_FUNS)
    return App(name, tuple(gen_surface_term(rng, scope, depth - 1) for _ in range(arity)))


def gen_surface_bool_term(rng: random.Random, scope: list[str]):
    pick = rng.random()
    if pick < 0.15:
        return App(rng.choice(("true", "false")))
    if pick < 0.4:
        return App("r", (gen_surface_term(rng, scope, 1),))
    if pick < 0.55:
        return App("Active", (gen_surface_term(rng, scope, 1),))
    if pick < 0.7:
        return App("not", (App("r", (gen_surface_term(rng, scope, 1),)),))
    return App("=", (gen_surface_term(rng, scope, 1), gen_surface_term(rng, scope, 1)))


def gen_surface_guard(rng: random.Random, scope: list[str], depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return Atom(gen_surface_bool_term(rng, scope))
    if roll < 0.55:
        return BoolGuard("not", (gen_surface_guard(rng, scope, depth - 1),))
    if roll < 0.8:
        op = rng.choice(("and", "or", "implies"))
        return BoolGuard(
            op, (gen_surface_guard(rng, scope, depth - 1), gen_surface_guard(rng, scope, depth - 1))
        )
    var = rng.choice(SURFACE_BINDERS)
    body = gen_surface_guard(rng, scope + [var], depth - 1)
    return QuantGuard(rng.choice(("exists", "forall")), var, "U", body)


def _surface_update(rng: random.Random, scope: list[str]):
    def term():
        return gen_surface_term(rng, scope, 2)

    roll = rng.random()
    if roll < 0.3:
        return _instr("g", (), term())
    if roll < 0.6:
        return _instr("f", (term(),), term())
    if roll < 0.8:
        return _instr("r", (term(),), gen_surface_bool_term(rng, scope))
    if roll < 0.93:
        return _instr("Active", (term(),), gen_surface_bool_term(rng, scope))
    return _instr("e", (term(),), term())


def _surface_vars(rng: random.Random) -> tuple[str, ...]:
    return tuple(rng.choice(SURFACE_BINDERS) for _ in range(rng.randint(1, 2)))


def gen_surface_rule(rng: random.Random, depth: int = 3, scope=None):
    """Random surface rule over all nine rule constructors.

    Binders are drawn from a small pool, so shadowing, repeated binders and
    binders that collide with free variables all occur; ``w`` is always
    free, ``e`` and ``k`` stand for external functions.
    """
    scope = list(scope or [])
    if depth <= 0:
        return _surface_update(rng, scope)
    kind = rng.choice(
        ("update", "block", "cond", "import", "choose", "decl", "let", "duplicate",
         "extend", "case")
    )

    def sub(extra=()):
        return gen_surface_rule(rng, depth - 1, scope + list(extra))

    if kind == "update":
        return _surface_update(rng, scope)
    if kind == "block":
        if rng.random() < 0.1:
            return SKIP
        return Block(tuple(sub() for _ in range(rng.randint(2, 3))))
    if kind == "cond":
        clauses = [(gen_surface_guard(rng, scope, 2), sub()) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            clauses.append((TRUE_GUARD, sub()))
        return Cond(tuple(clauses))
    if kind == "import":
        names = _surface_vars(rng)
        return Import(names, sub(names))
    if kind == "choose":
        names = _surface_vars(rng)
        qualifier = None
        if rng.random() < 0.5:
            qualifier = gen_surface_bool_term(rng, scope + list(names))
        return Choose(names, "U", qualifier, sub(names))
    if kind in ("decl", "let"):
        var = rng.choice(SURFACE_BINDERS)
        if kind == "decl":
            rng_node = UniverseRange("U")
        else:
            rng_node = TermRange(gen_surface_term(rng, scope, 2))
        return Decl(var, rng_node, sub([var]))
    if kind == "duplicate":
        var = rng.choice(SURFACE_BINDERS)
        return Duplicate(gen_surface_term(rng, scope, 1), var, sub([var]))
    if kind == "extend":
        names = _surface_vars(rng)
        return Extend("U", names, sub(names))
    branches = tuple(
        (tuple(gen_surface_term(rng, scope, 1) for _ in range(rng.randint(1, 2))), sub())
        for _ in range(rng.randint(1, 2))
    )
    else_rule = sub() if rng.random() < 0.5 else None
    return Case(gen_surface_term(rng, scope, 1), branches, else_rule)
