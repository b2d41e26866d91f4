"""The tree-walking interpreter the evaluator compiles away, frozen as the
reference for ``evaluator.updates``, ``nupdates``, ``eval_term`` and
``eval_guard``.

The evaluator compiles each rule, guard and term into closures.  Before
that, these walkers interpreted the syntax tree on every call: ``_eval``
and ``_eval_guard`` for terms and guards, ``_direct`` for the family of a
rule by direct induction, and ``_updates``, the deterministic walker that
``updates`` used before it returned the single member of the direct
family.  They are kept here unchanged, with the helpers they call, the
variable map ``Environment`` they bind through and the name dispatch
``State.read`` made on every read (``_read``), so the compiled code can
be compared with them rule by rule and term by term.
Only the package's public API is imported.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping

from ealgebra import (
    FALSE,
    TRUE,
    UNDEF,
    ContractViolation,
    DuplicateError,
    Element,
    EvaluationError,
    Location,
    ModeError,
    ReserveAllocator,
    StaticMirror,
    Update,
    UpdateFamily,
    UpdateSet,
    VocabularyError,
    boolean,
    syntax,
)
from ealgebra.vocabulary import COMPUTED_NAMES


class Environment:
    """Finite map from variables to elements; extension shadows."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: Mapping[str, Element] | None = None):
        self.bindings = dict(bindings or {})

    def bind(self, var: str, value: Element) -> "Environment":
        child = Environment(self.bindings)
        child.bindings[var] = value
        return child

    def lookup(self, var: str) -> Element | None:
        return self.bindings.get(var)

    def names(self):
        return self.bindings.keys()


EMPTY_ENV = Environment()
_BOOLEANS = (TRUE, FALSE)


class _Ctx:
    __slots__ = (
        "state", "env", "alloc", "oracle", "externals", "decls", "footprint", "vocabulary",
    )

    def __init__(self, state, env, alloc, oracle, externals, decls, footprint, vocabulary):
        self.state = state
        self.env = env
        self.alloc = alloc
        self.oracle = oracle
        self.externals = externals
        self.decls = decls
        self.footprint = footprint
        self.vocabulary = vocabulary

    def bind(self, var: str, value: Element, declared: bool = False) -> "_Ctx":
        return _Ctx(
            self.state,
            self.env.bind(var, value),
            self.alloc,
            self.oracle,
            self.externals,
            self.decls + (var,) if declared else self.decls,
            self.footprint,
            self.vocabulary,
        )


def _make_ctx(
    state, env, alloc, oracle, externals, decls, footprint, vocabulary=None
) -> _Ctx:
    if env is None:
        env = EMPTY_ENV
    elif isinstance(env, Mapping):
        env = Environment(env)
    if alloc is None:
        alloc = ReserveAllocator(state.reserve_next)
    return _Ctx(
        state, env, alloc, oracle, frozenset(externals), tuple(decls), footprint,
        vocabulary or state.vocabulary,
    )


# ---------------------------------------------------------------------------
# Reading a location: the name dispatch ``State.read`` made on every call


def _read(state, location: Location) -> Element:
    fname, args = location.fname, location.args
    fn = state.vocabulary.lookup(fname)
    if fn is None:
        raise VocabularyError(f"unknown function name: {fname}")
    if len(args) != fn.arity:
        raise VocabularyError(
            f"{fname}: expected {fn.arity} arguments, got {len(args)}"
        )
    if fname == "true":
        return TRUE
    if fname == "false":
        return FALSE
    if fname == "undef":
        return UNDEF
    if fname == "=":
        return boolean(args[0] == args[1])
    if fname in ("and", "or", "not", "implies"):
        return _bool_op(fname, args)
    if fname in ("+", "mod", "<"):
        return _int_op(state, fname, args)
    if state.vocabulary.integers and fname.isdigit():
        return _make_integer(state, int(fname))
    if fname == "Reserve":
        a = args[0]
        return boolean(a.kind == "reserve" and a.value >= state.reserve_next)
    for _, stored_args, stored in state.facts(fname):
        if stored_args == args:
            return stored
    return FALSE if fn.is_relation else UNDEF


def _make_integer(state, value: int) -> Element:
    if state.vocabulary.modulus:
        value %= state.vocabulary.modulus
    return Element.integer(value)


def _int_op(state, fname: str, args: tuple[Element, ...]) -> Element:
    a, b = args
    if a.kind != "int" or b.kind != "int":
        return FALSE if fname == "<" else UNDEF
    if fname == "+":
        return _make_integer(state, a.value + b.value)
    if fname == "<":
        return boolean(a.value < b.value)
    if b.value == 0:
        return UNDEF
    return _make_integer(state, a.value % b.value)


def _bool_op(fname: str, args: tuple[Element, ...]) -> Element:
    if any(a not in _BOOLEANS for a in args):
        return UNDEF
    vals = [a == TRUE for a in args]
    if fname == "and":
        return boolean(vals[0] and vals[1])
    if fname == "or":
        return boolean(vals[0] or vals[1])
    if fname == "not":
        return boolean(not vals[0])
    return boolean((not vals[0]) or vals[1])  # implies


# ---------------------------------------------------------------------------
# Terms and guards


def _eval(ctx: _Ctx, t: syntax.Term) -> Element:
    if isinstance(t, syntax.Var):
        value = ctx.env.lookup(t.name)
        if value is None:
            raise EvaluationError(f"unbound variable: {t.name}")
        return value
    args = tuple(_eval(ctx, a) for a in t.args)
    if t.fname in ctx.externals:
        if ctx.oracle is None:
            raise EvaluationError(f"{t.fname}: external function without an oracle")
        return ctx.oracle(t.fname, args)
    if ctx.footprint is not None and t.fname not in COMPUTED_NAMES and not t.fname.isdigit():
        ctx.footprint.locations.add(Location(t.fname, args))
    return _read(ctx.state, Location(t.fname, args))


def _eval_guard(ctx: _Ctx, g: syntax.Guard) -> bool:
    # Operands are evaluated without short-circuiting so the read footprint
    # of a rule does not depend on intermediate truth values.
    if isinstance(g, syntax.Atom):
        value = _eval(ctx, g.term)
        if value == TRUE:
            return True
        if value == FALSE:
            return False
        raise EvaluationError(
            f"guard evaluated to non-Boolean {value!r}: {syntax.format_term(g.term)}"
        )
    if isinstance(g, syntax.BoolGuard):
        vals = [_eval_guard(ctx, sub) for sub in g.operands]
        if g.op == "and":
            return vals[0] and vals[1]
        if g.op == "or":
            return vals[0] or vals[1]
        if g.op == "not":
            return not vals[0]
        return (not vals[0]) or vals[1]  # implies
    if isinstance(g, syntax.QuantGuard):
        members = _extent(ctx, g.universe)
        results = [_eval_guard(ctx.bind(g.var, a), g.body) for a in members]
        return any(results) if g.kind == "exists" else all(results)
    raise TypeError(f"unsupported guard {type(g).__name__}")


def _extent(ctx: _Ctx, universe: str) -> tuple[Element, ...]:
    if ctx.footprint is not None:
        ctx.footprint.names.add(universe)
    return ctx.state.extent(universe)


def eval_term(state, env, t: syntax.Term, *, oracle=None, externals=()) -> Element:
    ctx = _make_ctx(state, env, None, oracle, externals, (), None)
    return _eval(ctx, t)


def eval_guard(state, env, g: syntax.Guard, *, oracle=None, externals=()) -> bool:
    ctx = _make_ctx(state, env, None, oracle, externals, (), None)
    return _eval_guard(ctx, g)


# ---------------------------------------------------------------------------
# Shared pieces


def _check_input(rule, state, env: Environment, decls, vocabulary=None):
    facts = syntax.rule_facts(rule)
    if not facts.core:
        raise ModeError("rule contains surface sugar; desugar it first")
    binders = facts.binders
    names = (vocabulary or state.vocabulary).names
    if binders is None or (binders and not binders.isdisjoint(
        {fn.name for fn in names}.union(facts.free, env.names(), decls)
    )):
        raise ContractViolation(
            "rule is not perspicuous for this state; apply make_perspicuous"
        )
    return facts


def _instr_update(ctx: _Ctx, node: syntax.UpdateInstr) -> Update:
    args = tuple(_eval(ctx, a) for a in node.args)
    value = _eval(ctx, node.rhs)
    return Update(Location(node.fname, args), value)


def _import_element(ctx: _Ctx, var: str) -> tuple[Element, Update]:
    context = tuple(ctx.env.lookup(u) for u in ctx.decls)
    a = ctx.alloc.fresh(var, context)
    return a, Update(Location("Reserve", (a,)), FALSE)


def _range_values(ctx: _Ctx, rng: syntax.Range) -> tuple[Element, ...]:
    if isinstance(rng, syntax.UniverseRange):
        return _extent(ctx, rng.universe)
    return (_eval(ctx, rng.term),)


def _duplicate_prelude(ctx: _Ctx, node: syntax.Duplicate) -> tuple[Element, frozenset[Update]]:
    original = _eval(ctx, node.term)
    if original == UNDEF:
        raise DuplicateError("duplicate: term evaluates to undef")
    if original.kind == "reserve" and original.value >= ctx.state.reserve_next:
        raise DuplicateError("duplicate: term evaluates to a reserve element")
    context = tuple(ctx.env.lookup(u) for u in ctx.decls)
    copy = ctx.alloc.fresh(node.var, context)
    out: set[Update] = {Update(Location("Reserve", (copy,)), FALSE)}
    if ctx.footprint is not None:
        ctx.footprint.names.update(
            fn.name for fn in ctx.vocabulary.names if fn.name not in COMPUTED_NAMES
        )
    for fname, args, value in ctx.state.facts():
        if original not in args or fname not in ctx.vocabulary:
            continue
        fn = ctx.vocabulary.require(fname)
        choices = [(arg, copy) if arg == original else (arg,) for arg in args]
        for mixture in product(*choices):
            if mixture == args:
                continue
            loc = Location(fname, mixture)
            if fn.is_static:
                out.add(StaticMirror(loc, value))
            else:
                out.add(Update(loc, value))
    return copy, frozenset(out)


# ---------------------------------------------------------------------------
# Family semantics, direct induction (no bottom)


def _cross(acc: set[frozenset], fam: Iterable[frozenset]) -> set[frozenset]:
    return {x | y for x in acc for y in fam}


def _direct(ctx: _Ctx, rule: syntax.Rule) -> set[frozenset]:
    if isinstance(rule, syntax.UpdateInstr):
        return {frozenset({_instr_update(ctx, rule)})}
    if isinstance(rule, syntax.Block):
        acc: set[frozenset] = {frozenset()}
        for r in rule.rules:
            fam = _direct(ctx, r)
            if not fam:
                return set()
            acc = _cross(acc, fam)
        return acc
    if isinstance(rule, syntax.Cond):
        for g, r in rule.clauses:
            if _eval_guard(ctx, g):
                return _direct(ctx, r)
        return {frozenset()}
    if isinstance(rule, syntax.Import):
        a, withdrawal = _import_element(ctx, rule.vars[0])
        inner = _direct(ctx.bind(rule.vars[0], a), rule.body)
        return {member | {withdrawal} for member in inner}
    if isinstance(rule, syntax.Choose):
        out: set[frozenset] = set()
        for a in _extent(ctx, rule.universe):
            bound = ctx.bind(rule.vars[0], a)
            if rule.qualifier is not None and _eval(bound, rule.qualifier) != TRUE:
                continue
            out |= _direct(bound, rule.body)
        return out
    if isinstance(rule, syntax.Decl):
        acc = {frozenset()}
        for a in _range_values(ctx, rule.range):
            fam = _direct(ctx.bind(rule.var, a, declared=True), rule.body)
            if not fam:
                return set()
            acc = _cross(acc, fam)
        return acc
    if isinstance(rule, syntax.Duplicate):
        copy, prelude = _duplicate_prelude(ctx, rule)
        inner = _direct(ctx.bind(rule.var, copy), rule.body)
        return {member | prelude for member in inner}
    raise TypeError(f"unsupported rule {type(rule).__name__}")


def nupdates(
    rule, state, env=None, alloc=None, *, decls=(), oracle=None, externals=(),
    footprint=None, vocabulary=None,
) -> UpdateFamily:
    """Family of update sets by direct induction on the rule."""
    ctx = _make_ctx(state, env, alloc, oracle, externals, decls, footprint, vocabulary)
    _check_input(rule, state, ctx.env, decls, vocabulary)
    members = _direct(ctx, rule)
    return UpdateFamily(UpdateSet(m) for m in members)


# ---------------------------------------------------------------------------
# The deterministic walker


def _updates(ctx, rule):
    if isinstance(rule, syntax.UpdateInstr):
        return frozenset({_instr_update(ctx, rule)})
    if isinstance(rule, syntax.Block):
        out = frozenset()
        for r in rule.rules:
            out |= _updates(ctx, r)
        return out
    if isinstance(rule, syntax.Cond):
        for g, r in rule.clauses:
            if _eval_guard(ctx, g):
                return _updates(ctx, r)
        return frozenset()
    if isinstance(rule, syntax.Import):
        a, withdrawal = _import_element(ctx, rule.vars[0])
        return frozenset({withdrawal}) | _updates(ctx.bind(rule.vars[0], a), rule.body)
    if isinstance(rule, syntax.Choose):
        raise ModeError("choose rules have no deterministic update set; use nupdates")
    if isinstance(rule, syntax.Decl):
        out = frozenset()
        for a in _range_values(ctx, rule.range):
            out |= _updates(ctx.bind(rule.var, a, declared=True), rule.body)
        return out
    if isinstance(rule, syntax.Duplicate):
        copy, prelude = _duplicate_prelude(ctx, rule)
        return prelude | _updates(ctx.bind(rule.var, copy), rule.body)
    raise TypeError(f"unsupported rule {type(rule).__name__}")


def updates(
    rule, state, env=None, alloc=None, *, decls=(), oracle=None, externals=(), footprint=None
) -> UpdateSet:
    """The update set of a choice-free core rule at a state."""
    ctx = _make_ctx(state, env, alloc, oracle, externals, decls, footprint)
    _check_input(rule, state, ctx.env, decls)
    return UpdateSet(_updates(ctx, rule))
