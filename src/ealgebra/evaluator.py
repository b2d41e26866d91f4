"""Update-set semantics of transition rules.

``nupdates`` computes the family of alternative update sets by direct
induction over the rule, and ``nupdates_global`` computes the same family
by enumerating global choice functions, keeping contradictory resolutions
as a bottom member that fires as a no-op.  ``updates`` gives the
deterministic update set of a choice-free rule, which is the single member
of its direct family.  Fresh elements for import and duplication are drawn
by an injective allocator keyed on the binder and the values of enclosing
declared variables, so one fresh element is allocated per such pair.

All entry points expect core (desugared) rules that are perspicuous with
respect to the caller's name set; the engine wrappers in ``runner`` and
``distributed`` rename first.  The name set is the state's vocabulary
unless ``vocabulary`` gives the rule a smaller scope, as an agent's module
does: the binders must avoid only its names, and a duplicate mirrors only
its tables.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping, Optional

from . import syntax
from .errors import (
    ContractViolation,
    DuplicateError,
    EvaluationError,
    ModeError,
)
from .state import (
    FALSE,
    TRUE,
    UNDEF,
    Element,
    Location,
    State,
    StaticMirror,
    Update,
    UpdateFamily,
    UpdateSet,
)
from .vocabulary import COMPUTED_NAMES, Vocabulary


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

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.bindings.items()))
        return f"Environment({inner})"


EMPTY_ENV = Environment()


class ReserveAllocator:
    """Injective assignment of reserve elements to (binder, declared-values).

    Serials are drawn from ``start`` in encounter order (binder pre-order,
    then the canonical order of the enclosing declared-variable tuples), so
    evaluation is reproducible.  A custom offset order yields a different
    but still injective assignment; resulting states are isomorphic.
    """

    def __init__(self, start: int, order: Optional[Iterable[int]] = None):
        self.start = start
        self._memo: dict[tuple, Element] = {}
        self._order = list(order) if order is not None else None

    def fresh(self, var: str, context: tuple[Element, ...]) -> Element:
        key = (var, context)
        found = self._memo.get(key)
        if found is None:
            index = len(self._memo)
            offset = self._order[index] if self._order is not None else index
            found = Element.reserve(self.start + offset)
            self._memo[key] = found
        return found


class Footprint:
    """Locations a rule evaluation read; whole-table reads listed by name."""

    __slots__ = ("locations", "names")

    def __init__(self):
        self.locations: set[Location] = set()
        self.names: set[str] = set()


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
    return ctx.state.read(Location(t.fname, args))


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


def eval_term(state: State, env, t: syntax.Term, *, oracle=None, externals=()) -> Element:
    ctx = _make_ctx(state, env, None, oracle, externals, (), None)
    return _eval(ctx, t)


def eval_guard(state: State, env, g: syntax.Guard, *, oracle=None, externals=()) -> bool:
    ctx = _make_ctx(state, env, None, oracle, externals, (), None)
    return _eval_guard(ctx, g)


# ---------------------------------------------------------------------------
# Shared pieces


def _check_input(
    rule: syntax.Rule, state: State, env: Environment, decls, vocabulary=None
) -> syntax.RuleFacts:
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
    """Withdraw a fresh copy and mirror the stored facts mentioning the
    original in every table of the rule's scope.

    The scan reads each of those tables, empty ones too, so all of them
    join the footprint's whole-table reads.
    """
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
    rule: syntax.Rule,
    state: State,
    env=None,
    alloc: ReserveAllocator | None = None,
    *,
    decls: tuple[str, ...] = (),
    oracle=None,
    externals=(),
    footprint: Footprint | None = None,
    vocabulary: Vocabulary | None = None,
) -> UpdateFamily:
    """Family of update sets by direct induction on the rule.

    A qualified choose contributes branches only for satisfying elements;
    when nothing qualifies (or a plain choose ranges over an empty
    universe) the family is empty, which fires as a no-op.
    """
    ctx = _make_ctx(state, env, alloc, oracle, externals, decls, footprint, vocabulary)
    _check_input(rule, state, ctx.env, decls, vocabulary)
    members = _direct(ctx, rule)
    return UpdateFamily.of(UpdateSet(m) for m in members)


def updates(
    rule: syntax.Rule,
    state: State,
    env=None,
    alloc: ReserveAllocator | None = None,
    *,
    decls: tuple[str, ...] = (),
    oracle=None,
    externals=(),
    footprint: Footprint | None = None,
    vocabulary: Vocabulary | None = None,
) -> UpdateSet:
    """The update set of a choice-free core rule at a state: the single
    member of its direct family.

    A rule with a choose anywhere, even in a branch not taken here, has no
    deterministic update set and raises ``ModeError``.
    """
    ctx = _make_ctx(state, env, alloc, oracle, externals, decls, footprint, vocabulary)
    if _check_input(rule, state, ctx.env, decls, vocabulary).choose:
        raise ModeError("choose rules have no deterministic update set; use nupdates")
    (member,) = _direct(ctx, rule)
    return UpdateSet(member)


# ---------------------------------------------------------------------------
# Family semantics via global choice functions (with bottom)


def _global(ctx: _Ctx, rule: syntax.Rule) -> tuple[set[frozenset], bool]:
    if isinstance(rule, syntax.UpdateInstr):
        return {frozenset({_instr_update(ctx, rule)})}, False
    if isinstance(rule, (syntax.Block, syntax.Decl)):
        if isinstance(rule, syntax.Block):
            parts = [(ctx, r) for r in rule.rules]
        else:
            parts = [
                (ctx.bind(rule.var, a, declared=True), rule.body)
                for a in _range_values(ctx, rule.range)
            ]
        acc: set[frozenset] = {frozenset()}
        bottom = False
        for sub_ctx, r in parts:
            fam, bot = _global(sub_ctx, r)
            bottom = bottom or bot
            acc = _cross(acc, fam)
        return acc, bottom
    if isinstance(rule, syntax.Cond):
        for g, r in rule.clauses:
            if _eval_guard(ctx, g):
                return _global(ctx, r)
        return {frozenset()}, False
    if isinstance(rule, syntax.Import):
        a, withdrawal = _import_element(ctx, rule.vars[0])
        fam, bottom = _global(ctx.bind(rule.vars[0], a), rule.body)
        return {member | {withdrawal} for member in fam}, bottom
    if isinstance(rule, syntax.Choose):
        members = _extent(ctx, rule.universe)
        if not members:
            return set(), True
        out: set[frozenset] = set()
        bottom = False
        for a in members:
            bound = ctx.bind(rule.vars[0], a)
            if rule.qualifier is not None and _eval(bound, rule.qualifier) != TRUE:
                bottom = True
                continue
            fam, bot = _global(bound, rule.body)
            bottom = bottom or bot
            out |= fam
        return out, bottom
    if isinstance(rule, syntax.Duplicate):
        copy, prelude = _duplicate_prelude(ctx, rule)
        fam, bottom = _global(ctx.bind(rule.var, copy), rule.body)
        return {member | prelude for member in fam}, bottom
    raise TypeError(f"unsupported rule {type(rule).__name__}")


def nupdates_global(
    rule: syntax.Rule,
    state: State,
    env=None,
    alloc: ReserveAllocator | None = None,
    *,
    decls: tuple[str, ...] = (),
    oracle=None,
    externals=(),
    footprint: Footprint | None = None,
) -> UpdateFamily:
    """Family of update sets computed by ranging over choice functions.

    Contradictory resolutions (empty ranges, failed qualifiers) are kept
    as the family's bottom member and fire as no-ops.
    """
    ctx = _make_ctx(state, env, alloc, oracle, externals, decls, footprint)
    _check_input(rule, state, ctx.env, decls)
    members, bottom = _global(ctx, rule)
    return UpdateFamily.of((UpdateSet(m) for m in members), contains_bottom=bottom)


# ---------------------------------------------------------------------------
# Guarded-update normal form


def normalize_guarded(rule: syntax.Rule) -> syntax.Rule:
    """Flatten a basic rule into a block of guarded updates.

    Each clause's guard is conjoined with the negations of all earlier
    guards on the path, preserving the update set at every state.
    """
    if not syntax.is_basic(rule):
        raise ModeError("normal form is defined for basic rules only")

    def collect(node: syntax.Rule, prefix: list[syntax.Guard]):
        if isinstance(node, syntax.UpdateInstr):
            return [(syntax.conjoin(prefix), node)]
        if isinstance(node, syntax.Block):
            out = []
            for r in node.rules:
                out.extend(collect(r, prefix))
            return out
        assert isinstance(node, syntax.Cond)
        out = []
        negations: list[syntax.Guard] = []
        for g, r in node.clauses:
            out.extend(collect(r, prefix + negations + [g]))
            negations.append(syntax.g_not(g))
        return out

    guarded = [
        syntax.Cond(((guard, instr),)) for guard, instr in collect(rule, [])
    ]
    if len(guarded) == 1:
        return guarded[0]
    return syntax.Block(tuple(guarded))


# ---------------------------------------------------------------------------
# Firing helpers


def successor_states(state: State, family: UpdateFamily) -> set[State]:
    """Every state reachable by firing one member of the family.

    The empty family and the bottom member both leave the state unchanged.
    """
    if family.is_empty:
        return {state}
    out: set[State] = set()
    for member in family.sets:
        fired, _ = state.fire_update_set(member)
        out.add(fired)
    if family.contains_bottom:
        out.add(state)
    return out
