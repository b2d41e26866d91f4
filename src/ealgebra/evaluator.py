"""Update-set semantics of transition rules, compiled into closures.

``nupdates`` computes the family of alternative update sets by direct
induction over the rule; the paper's second characterization, over global
choice functions with a bottom member, is a test oracle
(``tests/globaloracle.py``) that the engine never runs.  ``updates`` gives
the deterministic update set of a choice-free rule, which is the single
member of its direct family.  Fresh elements for import and duplication
are drawn by an injective allocator keyed on the binder and the values of
enclosing declared variables, so one fresh element is allocated per such
pair.

Rules, guards and terms are compiled into Python closures (closure
compilation, Feeley & Lapalme 1987) on first evaluation.  Every function
name is resolved once, at compile time, by ``state.resolve``, the same
dispatch ``State.read`` uses: a constant becomes its element, a tabled
read one dict lookup, and an unknown name or a wrong arity a closure that
evaluates its arguments and then raises ``VocabularyError``, so the error
fires only on a branch that is taken.  A rule compiles to one closure
that extends a running family, a list of members, each a list of
updates: an update instruction appends to every member and only a choose
copies them, once per qualifying element, so a choice-free rule builds
its single member on one list.  The closure is kept on the node it was
compiled from (as ``syntax.rule_facts`` keeps a rule's facts), keyed by
the identity of the state's vocabulary and by the set of external names,
and compiled again for any other pair.

Compilation changes nothing observable.  Guard operands are evaluated
without short-circuiting, so a read footprint does not depend on truth
values; the input contract is checked once per rule, vocabulary, scope
and names, by the evaluator ``prepared`` keeps for them; errors, their
messages and their order, the family order and the reads recorded in a
footprint are those of a walk over the tree.  A malformed node (a guard
that is no guard, a Boolean connective with the wrong operand count) is
refused with ``TypeError`` when it is compiled, not when it is evaluated.

All entry points expect core (desugared) rules that are perspicuous with
respect to the caller's name set; the engine wrappers in ``runner`` and
``distributed`` rename first.  The name set is the state's vocabulary
unless ``vocabulary`` gives the rule a smaller scope, as an agent's module
does: the binders must avoid only its names, and a duplicate mirrors only
its tables.
"""

from __future__ import annotations

from itertools import product

from . import syntax
from .errors import (
    ContractViolation,
    DuplicateError,
    EvaluationError,
    ModeError,
    require,
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
    resolve,
)
from .vocabulary import COMPUTED_NAMES, Vocabulary


class ReserveAllocator:
    """Injective assignment of reserve elements to (binder, declared-values).

    Serials are drawn from ``start`` in encounter order (binder pre-order,
    then the canonical order of the enclosing declared-variable tuples), so
    evaluation is reproducible.  Any object with ``fresh(var, context)``
    may stand in for it.
    """

    def __init__(self, start: int):
        self.start = start
        self._memo: dict[tuple, Element] = {}

    def fresh(self, var: str, context: tuple[Element, ...]) -> Element:
        key = (var, context)
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = Element.reserve(self.start + len(self._memo))
        return found


class Footprint:
    """Locations a rule evaluation read; whole-table reads listed by name."""

    __slots__ = ("locations", "names")

    def __init__(self):
        self.locations: set[Location] = set()
        self.names: set[str] = set()


class _Run:
    """One evaluation: what every closure reads besides the variables."""

    __slots__ = ("state", "env", "alloc", "oracle", "footprint", "decls", "scope")

    def __init__(self, state, env, alloc, oracle, footprint, decls, scope):
        self.state = state
        self.env = env
        self.alloc = alloc
        self.oracle = oracle
        self.footprint = footprint
        self.decls = decls  # the enclosing declared variables
        self.scope = scope

    def bind(self, var: str, value: Element, declared: bool = False) -> "_Run":
        return _Run(
            self.state, {**self.env, var: value}, self.alloc, self.oracle, self.footprint,
            self.decls + (var,) if declared else self.decls, self.scope,
        )


# ---------------------------------------------------------------------------
# The compiler


def _compiled(node, vocabulary: Vocabulary, externals: frozenset[str], build):
    """``build(compiler, node)`` for the vocabulary and the external names:
    the closure of a rule (``_Compiler.rule``), guard or term, compiled
    once per vocabulary object and set of external names and kept on the
    node."""
    cache = node.__dict__.setdefault("_compiled", {})
    key = (build, id(vocabulary), externals)
    hit = cache.get(key)
    if hit is None:
        # The entry keeps the vocabulary alive, so no other object gets its id.
        hit = cache[key] = (build(_Compiler(vocabulary, externals), node), vocabulary)
    return hit[0]


class _Compiler:
    """Closures over a ``_Run`` for states of one vocabulary, with one set
    of external names."""

    def __init__(self, vocabulary: Vocabulary, externals: frozenset[str]):
        self.vocabulary = vocabulary
        self.externals = externals

    # -- terms ---------------------------------------------------------------

    def term(self, t: syntax.Term):
        if isinstance(t, syntax.Var):
            name = t.name

            def variable(run):
                value = run.env.get(name)
                if value is None:
                    raise EvaluationError(f"unbound variable: {name}")
                return value

            return variable
        fname, fs = t.fname, [self.term(a) for a in t.args]
        args = _tuple(fs)
        if fname in self.externals:
            def external(run):
                values = args(run)
                if run.oracle is None:
                    raise EvaluationError(f"{fname}: external function without an oracle")
                return run.oracle(fname, values)

            return external
        how = resolve(self.vocabulary, fname, len(t.args))
        if how.kind == "constant":
            value = how.value
            return lambda run: value
        if how.kind == "=":
            a, b = fs
            return lambda run: TRUE if a(run) == b(run) else FALSE
        read = how.read
        if fname in COMPUTED_NAMES:  # never in a footprint
            return lambda run: read(run.state, args(run))
        if how.kind != "table":
            def tracked(run):
                values = args(run)
                if run.footprint is not None:
                    run.footprint.locations.add(Location(fname, values))
                return read(run.state, values)

            return tracked
        default = how.value
        if not fs:  # one location, built once: a footprint records it on every read
            at = Location(fname, ())

            def nullary(run):
                if run.footprint is not None:
                    run.footprint.locations.add(at)
                table = run.state._tables.get(fname)
                return default if table is None else table.get((), default)

            return nullary

        def tabled(run):
            values = args(run)
            if run.footprint is not None:
                run.footprint.locations.add(Location(fname, values))
            table = run.state._tables.get(fname)
            return default if table is None else table.get(values, default)

        return tabled

    # -- guards --------------------------------------------------------------

    def guard(self, g: syntax.Guard):
        if isinstance(g, syntax.Atom):
            t = g.term
            if isinstance(t, syntax.App) and t.fname not in self.externals \
                    and resolve(self.vocabulary, t.fname, len(t.args)).kind == "=":
                a, b = map(self.term, t.args)
                return lambda run: a(run) == b(run)
            term = self.term(t)

            def atom(run):
                value = term(run)
                if value == TRUE:
                    return True
                if value == FALSE:
                    return False
                raise EvaluationError(
                    f"guard evaluated to non-Boolean {value!r}: {syntax.format_term(t)}"
                )

            return atom
        if isinstance(g, syntax.QuantGuard):
            body, var, universe = self.guard(g.body), g.var, g.universe
            holds = any if g.kind == "exists" else all
            return lambda run: holds(
                [body(run.bind(var, a)) for a in _extent(run, universe)]
            )
        if not isinstance(g, syntax.BoolGuard):
            raise TypeError(f"unsupported guard {type(g).__name__}")
        op, n = g.op, len(g.operands)
        if (op, n) != ("not", 1) and not (n == 2 and op in ("and", "or", "implies")):
            raise TypeError(f"malformed guard: {op!r} with {n} operands")
        # Every operand is evaluated, so that the footprint does not depend
        # on the operands' truth values.
        subs = [self.guard(sub) for sub in g.operands]
        if op == "not":
            (a,) = subs
            return lambda run: not a(run)
        a, b = subs
        if op == "and":
            return lambda run: a(run) & b(run)
        if op == "or":
            return lambda run: a(run) | b(run)
        return lambda run: (not a(run)) | b(run)

    # -- rules ---------------------------------------------------------------

    def rule(self, rule: syntax.Rule):
        """``code(run, acc)``: ``acc`` is a list of family members, each a
        list of updates the call owns; ``code`` adds every member of the
        rule's direct family to every member of ``acc`` and returns the
        result, ``[]`` once the family is empty.  A rule that cannot choose
        extends the members in place."""
        if isinstance(rule, syntax.UpdateInstr):
            fname, rhs = rule.fname, self.term(rule.rhs)
            args = _tuple([self.term(a) for a in rule.args])
            at = None if rule.args else Location(fname, ())  # a nullary target, built once

            def update(run, acc):
                u = Update(at or Location(fname, args(run)), rhs(run))
                for m in acc:
                    m.append(u)
                return acc

            return update
        if isinstance(rule, syntax.Block):
            codes = [self.rule(r) for r in rule.rules]

            def block(run, acc):
                for code in codes:
                    if not acc:  # later parts are not evaluated
                        break
                    acc = code(run, acc)
                return acc

            return block
        if isinstance(rule, syntax.Cond):
            clauses = [(self.guard(g), self.rule(r)) for g, r in rule.clauses]

            def cond(run, acc):
                for guard, code in clauses:
                    if guard(run):
                        return code(run, acc)
                return acc

            return cond
        if isinstance(rule, syntax.Import):
            return self.binder(rule.vars[0], rule.body, _withdraw)
        if isinstance(rule, syntax.Duplicate):
            term = self.term(rule.term)
            return self.binder(rule.var, rule.body, lambda run, var: _duplicate(run, term, var))
        if isinstance(rule, syntax.Choose):
            var, universe, body = rule.vars[0], rule.universe, self.rule(rule.body)
            qualifier = None if rule.qualifier is None else self.term(rule.qualifier)

            def choose(run, acc):
                # Members are kept once per update set: sibling chooses
                # multiply the members, and many of them coincide (a block
                # of k chooses whose bodies skip would hold n^k copies of
                # one member).
                out: dict[frozenset, list] = {}
                for a in _extent(run, universe):
                    bound = run.bind(var, a)
                    if qualifier is None or qualifier(bound) == TRUE:
                        for m in body(bound, [list(m) for m in acc]):
                            out.setdefault(frozenset(m), m)
                return list(out.values())

            return choose
        if isinstance(rule, syntax.Decl):
            var, values, code = rule.var, self.range(rule.range), self.rule(rule.body)

            def decl(run, acc):
                for a in values(run):
                    if not acc:
                        break
                    acc = code(run.bind(var, a, declared=True), acc)
                return acc

            return decl
        raise TypeError(f"unsupported rule {type(rule).__name__}")

    def binder(self, var: str, body: syntax.Rule, prelude):
        """Import and duplicate: ``prelude(run, var)`` gives the element
        bound to ``var`` and the updates added to every member."""
        code = self.rule(body)

        def bind(run, acc):
            a, extra = prelude(run, var)
            for m in acc:
                m.extend(extra)
            return code(run.bind(var, a), acc)

        return bind

    def range(self, rng: syntax.Range):
        if isinstance(rng, syntax.UniverseRange):
            universe = rng.universe
            return lambda run: _extent(run, universe)
        term = self.term(rng.term)
        return lambda run: (term(run),)


def _tuple(fs: list):
    """A closure giving the tuple of the compiled terms' values, left to
    right."""
    if not fs:
        return lambda run: ()
    if len(fs) == 1:
        (a,) = fs
        return lambda run: (a(run),)
    if len(fs) == 2:
        a, b = fs
        return lambda run: (a(run), b(run))
    return lambda run: tuple([f(run) for f in fs])


# ---------------------------------------------------------------------------
# Shared pieces


def _extent(run: _Run, universe: str) -> tuple[Element, ...]:
    if run.footprint is not None:
        run.footprint.names.add(universe)
    return run.state.extent(universe)


def _fresh(run: _Run, var: str) -> Element:
    return run.alloc.fresh(var, tuple([run.env.get(u) for u in run.decls]))


def _withdraw(run: _Run, var: str) -> tuple[Element, tuple[Update]]:
    a = _fresh(run, var)
    return a, (Update(Location("Reserve", (a,)), FALSE),)


def _duplicate(run: _Run, term, var: str) -> tuple[Element, frozenset[Update]]:
    """Withdraw a fresh copy and mirror the stored facts mentioning the
    original in every table of the rule's scope.

    The scan reads each of those tables, empty ones too, so all of them
    join the footprint's whole-table reads.
    """
    original = term(run)
    if original == UNDEF:
        raise DuplicateError("duplicate: term evaluates to undef")
    if original.kind == "reserve" and original.value >= run.state.reserve_next:
        raise DuplicateError("duplicate: term evaluates to a reserve element")
    copy = _fresh(run, var)
    out: set[Update] = {Update(Location("Reserve", (copy,)), FALSE)}
    scope = run.scope
    if run.footprint is not None:
        run.footprint.names.update(fn.name for fn in scope.names if fn.name not in COMPUTED_NAMES)
    for fname, args, value in run.state.facts():
        if original not in args or fname not in scope:
            continue
        fn = scope.require(fname)
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


def _parsed(node, kind: str, entry_point: str):
    """``node``, refused with ``ContractViolation`` when it is text, which
    ``parse_<kind>_text`` parses, or no syntax node at all."""
    if isinstance(node, str):
        raise ContractViolation(f"expected a parsed {kind}, not text; parse it with parse_{kind}_text")
    if not isinstance(node, syntax.Value):
        raise ContractViolation(f"{entry_point} takes a parsed {kind}, not {type(node).__name__}")
    return node


def _check_input(rule: syntax.Rule, scope: Vocabulary, bound, decls) -> syntax.RuleFacts:
    """The rule's facts, once it is a core rule perspicuous for the names of
    ``scope``, the bound variables ``bound`` and the declared ``decls``."""
    facts = syntax.rule_facts(_parsed(rule, "rule", "prepared"))
    if not facts.core:
        raise ModeError("rule contains surface sugar; desugar it first")
    binders = facts.binders
    if binders is None or (binders and not (
        binders.isdisjoint(scope.name_set)
        and binders.isdisjoint(facts.free)
        and binders.isdisjoint(bound)
        and binders.isdisjoint(decls)
    )):
        raise ContractViolation(
            "rule is not perspicuous for this state; apply make_perspicuous"
        )
    return facts


# ---------------------------------------------------------------------------
# Entry points


def eval_term(state: State, env, t: syntax.Term, *, oracle=None, externals=()) -> Element:
    # A term or a guard allocates nothing, and no closure writes ``env``
    # (``_Run.bind`` copies it): the run needs no allocator and no copy.
    require(state, State, "eval_term")
    run = _Run(state, env or {}, None, oracle, None, (), state.vocabulary)
    t = _parsed(t, "term", "eval_term")
    return _compiled(t, state.vocabulary, frozenset(externals), _Compiler.term)(run)


def eval_guard(
    state: State, env, g: syntax.Guard, *, oracle=None, externals=(),
    footprint: Footprint | None = None,
) -> bool:
    """The truth value of a guard at a state, with ``env`` binding its free
    variables.  With ``footprint``, the locations and the tables the
    evaluation read are added to it; every operand is evaluated, so they do
    not depend on truth values."""
    require(state, State, "eval_guard")
    run = _Run(state, env or {}, None, oracle, footprint, (), state.vocabulary)
    g = _parsed(g, "guard", "eval_guard")
    return _compiled(g, state.vocabulary, frozenset(externals), _Compiler.guard)(run)


def _entry(entry_point: str, rule, state, env, externals, vocabulary, decls):
    """The evaluator ``prepared`` keeps for an entry point's arguments."""
    require(state, State, entry_point)
    if vocabulary is not None:
        require(vocabulary, Vocabulary, entry_point)
    return prepared(
        _parsed(rule, "rule", entry_point), state.vocabulary, frozenset(externals), vocabulary,
        tuple(env or ()), tuple(decls),
    )


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
    evaluate = _entry("nupdates", rule, state, env, externals, vocabulary, decls)
    found = evaluate(state, env or {}, oracle, footprint, alloc)
    return found if isinstance(found, UpdateFamily) else UpdateFamily((found,))


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
    evaluate = _entry("updates", rule, state, env, externals, vocabulary, decls)
    if syntax.rule_facts(rule).choose:
        raise ModeError("choose rules have no deterministic update set; use nupdates")
    return evaluate(state, env or {}, oracle, footprint, alloc)


def prepared(
    rule: syntax.Rule, vocabulary: Vocabulary, externals: frozenset[str] = frozenset(),
    scope: Vocabulary | None = None, bound: tuple[str, ...] = (), decls: tuple[str, ...] = (),
):
    """``evaluate(state, env, oracle, footprint, alloc=None)`` for states of
    ``vocabulary``, ``env`` binding the variables ``bound`` names, ``decls``
    among them declared: what ``updates`` (``nupdates`` for a rule with
    choose) gives for them in ``scope``.  The contract is checked and the
    rule compiled once per vocabulary object, externals, scope, bound and
    declared names, and the evaluator kept on the rule as ``_compiled``
    keeps closures; a refusal is not kept.  Without ``alloc``, a rule that
    imports or duplicates nothing gets no allocator."""
    cache = rule.__dict__.setdefault("_prepared", {})
    key = (id(vocabulary), externals, id(scope), bound, decls)
    hit = cache.get(key)
    if hit is None:
        names = scope or vocabulary
        choose = _check_input(rule, names, bound, decls).choose
        code = _compiled(rule, vocabulary, externals, _Compiler.rule)
        allocates = syntax.has_import(rule)

        def evaluate(state, env, oracle, footprint, alloc=None):
            if alloc is None and allocates:
                alloc = ReserveAllocator(state.reserve_next)
            members = code(_Run(state, env, alloc, oracle, footprint, decls, names), [[]])
            if choose:
                return UpdateFamily(map(UpdateSet, members))
            return UpdateSet(members[0])  # the one member of a choice-free rule

        # The entry keeps both vocabularies alive, so no other object gets their ids.
        hit = cache[key] = (evaluate, vocabulary, scope)
    return hit[0]


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
