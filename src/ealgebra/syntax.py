"""Abstract syntax for terms, guards, transition rules and programs.

The constructors mirror the rule language: update instructions, blocks
(simultaneous firing), conditionals, import of fresh elements, choice,
explicit variable declarations and duplication, plus the surface
abbreviations (extend, case, let, multi-variable import/choose) that
``desugar`` eliminates.  Everything here is an immutable value; analyses
and transformations return new nodes.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Union

from .errors import ContractViolation, require_int

if TYPE_CHECKING:
    from .vocabulary import Vocabulary


class Value:
    """An immutable record of the fields its class annotates, its class
    attributes the defaults.  It prints as ``Name(field=value, ...)`` and
    equals, and hashes like, a value of its own class with equal fields.
    Assignment raises ``AttributeError``; the instance ``__dict__`` keeps
    what is computed once (``cached_property``, ``rule_facts``)."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            named = {**self._defaults, **given, **kwargs}
            if len(args) > len(fields) or given.keys() & kwargs or named.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
            args = [named[field] for field in fields]
        # Not through ``__dict__``: reading that would build a dict in place
        # of the inline values, and every field read would be slower.
        for i, field in enumerate(fields):
            object.__setattr__(self, field, args[i])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} cannot change")

    __delattr__ = __setattr__

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self):
        return hash((self.__class__, self._key(self)))

    def _replace(self, **changes):
        """A copy with the fields ``changes`` names set to new values."""
        return type(self)(**{f: changes.pop(f, getattr(self, f)) for f in self._fields}, **changes)


# ---------------------------------------------------------------------------
# Terms


class Var(Value):
    name: str


class App(Value):
    fname: str
    args: tuple["Term", ...] = ()


Term = Union[Var, App]


# ---------------------------------------------------------------------------
# Guards

BOOL_OPS = ("and", "or", "not", "implies")


class Atom(Value):
    """Atomic guard: a Boolean term evaluated for truth."""

    term: Term


class BoolGuard(Value):
    op: str  # one of BOOL_OPS
    operands: tuple["Guard", ...]


class QuantGuard(Value):
    kind: str  # "exists" | "forall"
    var: str
    universe: str
    body: "Guard"


Guard = Union[Atom, BoolGuard, QuantGuard]

TRUE_GUARD = Atom(App("true"))


def g_and(a: Guard, b: Guard) -> Guard:
    return BoolGuard("and", (a, b))


def g_not(g: Guard) -> Guard:
    """Negate a guard, cancelling double negations for readable output."""
    if isinstance(g, BoolGuard) and g.op == "not":
        return g.operands[0]
    return BoolGuard("not", (g,))


def conjoin(parts: list[Guard]) -> Guard:
    parts = [p for p in parts if p != TRUE_GUARD]
    if not parts:
        return TRUE_GUARD
    out = parts[0]
    for p in parts[1:]:
        out = g_and(out, p)
    return out


# ---------------------------------------------------------------------------
# Declaration ranges


class UniverseRange(Value):
    universe: str


class TermRange(Value):
    """Singleton range synthesized for let bindings: one value, evaluated once."""

    term: Term


Range = Union[UniverseRange, TermRange]


# ---------------------------------------------------------------------------
# Rules


class UpdateInstr(Value):
    fname: str
    args: tuple[Term, ...]
    rhs: Term


class Block(Value):
    rules: tuple["Rule", ...] = ()


class Cond(Value):
    clauses: tuple[tuple[Guard, "Rule"], ...]


class Import(Value):
    vars: tuple[str, ...]
    body: "Rule"


class Choose(Value):
    vars: tuple[str, ...]
    universe: str
    qualifier: Optional[Term]
    body: "Rule"


class Decl(Value):
    """Atomic variable declaration followed by a rule."""

    var: str
    range: Range
    body: "Rule"


class Duplicate(Value):
    term: Term
    var: str
    body: "Rule"


class Extend(Value):
    """Abbreviation: import fresh elements and put them into a universe."""

    universe: str
    vars: tuple[str, ...]
    body: "Rule"


class Case(Value):
    subject: Term
    branches: tuple[tuple[tuple[Term, ...], "Rule"], ...]
    else_rule: Optional["Rule"]


Rule = Union[UpdateInstr, Block, Cond, Import, Choose, Decl, Duplicate, Extend, Case]

SKIP = Block(())


# ---------------------------------------------------------------------------
# Programs


class Program(Value):
    """A rule without free variables plus its vocabulary and declarations."""

    vocabulary: "Vocabulary"
    rule: Rule
    externals: frozenset[str] = frozenset()
    constants: tuple[str, ...] = ()
    name: Optional[str] = None
    active_sugar: bool = False

    @cached_property
    def core_rule(self) -> Rule:
        return desugar(self.rule, active=self.active_sugar)

    @cached_property
    def prepared(self) -> Rule:
        """The core rule alpha-renamed so the evaluator's preconditions hold.

        In a module, Self reads as a variable, which a move binds to the
        agent that makes it.
        """
        avoid = {fn.name for fn in self.vocabulary.names}
        rule = make_perspicuous(self.core_rule, avoid)
        return _self_as_variable(rule) if "Self" in avoid else rule

    @cached_property
    def has_choose(self) -> bool:
        return rule_facts(self.prepared).choose


class DistributedSpec(Value):
    """A finite indexed set of single-agent programs sharing one vocabulary."""

    module_list: tuple[tuple[str, Program], ...]
    vocabulary: "Vocabulary"
    constants: tuple[str, ...] = ()

    @cached_property
    def modules(self) -> Mapping[str, Program]:
        return dict(self.module_list)

    @property
    def module_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.module_list)


def require_parsed(node, kind: str, entry_point: str):
    """``node``, refused with ``ContractViolation`` naming ``entry_point``
    when it is text, which ``parse_<kind>_text`` parses for a rule, a
    guard or a term, or no syntax node at all.  Only the entry is checked:
    a malformed node inside a tree is a ``TypeError`` where it is met."""
    if isinstance(node, str):
        hint = f"; parse it with parse_{kind}_text" if kind in ("rule", "guard", "term") else ""
        raise ContractViolation(f"{entry_point} takes a parsed {kind}, not text{hint}")
    if not isinstance(node, Value):
        raise ContractViolation(f"{entry_point} takes a parsed {kind}, not {type(node).__name__}")
    return node


# ---------------------------------------------------------------------------
# Node shapes
#
# ``parts`` and ``rebuild`` are the only code that knows what each node
# holds.  ``outside`` lists the sub-nodes the node's binders do not scope
# over (a declaration's range, a duplicated term, a case subject, its
# labels and branches, every child of a binder-free node); ``inside``
# lists the bodies and the choose qualifier.  An absent part is None.


def _case_parts(n: Case):
    outside = [n.subject]
    for labels, rule in n.branches:
        outside.extend(labels)
        outside.append(rule)
    outside.append(n.else_rule)
    return (), tuple(outside), ()


def _case_rebuild(n: Case, binders, outside, inside) -> Case:
    rest = iter(outside[1:-1])
    branches = tuple(
        (tuple(next(rest) for _ in labels), next(rest)) for labels, _ in n.branches
    )
    return Case(outside[0], branches, outside[-1])


# node type -> (parts(node), rebuild(node, binders, outside, inside))
_SHAPES = {
    Var: (lambda n: ((), (), ()), lambda n, b, o, i: n),
    App: (lambda n: ((), n.args, ()), lambda n, b, o, i: App(n.fname, o)),
    Atom: (lambda n: ((), (n.term,), ()), lambda n, b, o, i: Atom(o[0])),
    BoolGuard: (lambda n: ((), n.operands, ()), lambda n, b, o, i: BoolGuard(n.op, o)),
    QuantGuard: (
        lambda n: ((n.var,), (), (n.body,)),
        lambda n, b, o, i: QuantGuard(n.kind, b[0], n.universe, i[0]),
    ),
    UniverseRange: (lambda n: ((), (), ()), lambda n, b, o, i: n),
    TermRange: (lambda n: ((), (n.term,), ()), lambda n, b, o, i: TermRange(o[0])),
    UpdateInstr: (
        lambda n: ((), (*n.args, n.rhs), ()),
        lambda n, b, o, i: UpdateInstr(n.fname, o[:-1], o[-1]),
    ),
    Block: (lambda n: ((), n.rules, ()), lambda n, b, o, i: Block(o)),
    Cond: (
        lambda n: ((), tuple(x for clause in n.clauses for x in clause), ()),
        lambda n, b, o, i: Cond(tuple(zip(o[::2], o[1::2]))),
    ),
    Import: (lambda n: (n.vars, (), (n.body,)), lambda n, b, o, i: Import(b, i[0])),
    Choose: (
        lambda n: (n.vars, (), (n.qualifier, n.body)),
        lambda n, b, o, i: Choose(b, n.universe, i[0], i[1]),
    ),
    Decl: (
        lambda n: ((n.var,), (n.range,), (n.body,)),
        lambda n, b, o, i: Decl(b[0], o[0], i[0]),
    ),
    Duplicate: (
        lambda n: ((n.var,), (n.term,), (n.body,)),
        lambda n, b, o, i: Duplicate(o[0], b[0], i[0]),
    ),
    Extend: (
        lambda n: (n.vars, (), (n.body,)),
        lambda n, b, o, i: Extend(n.universe, b, i[0]),
    ),
    Case: (_case_parts, _case_rebuild),
}


def _shape(node):
    try:
        return _SHAPES[type(node)]
    except KeyError:
        raise TypeError(f"unsupported syntax node {type(node).__name__}") from None


def parts(node) -> tuple[tuple[str, ...], tuple, tuple]:
    """``(binders, outside, inside)`` of a node; see the section comment."""
    return _shape(node)[0](node)


def rebuild(node, binders, outside, inside):
    """The node of the same kind as ``node`` with the given parts; ``node``
    itself when the parts are its own."""
    binders, outside, inside = tuple(binders), tuple(outside), tuple(inside)
    old = parts(node)
    if old[0] == binders and _same(old[1], outside) and _same(old[2], inside):
        return node
    return _shape(node)[1](node, binders, outside, inside)


def _same(xs: tuple, ys: tuple) -> bool:
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def nodes(node):
    """Every node of a tree in pre-order, outside parts before inside ones."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        _, outside, inside = parts(n)
        stack.extend(c for c in reversed(outside + inside) if c is not None)


def _map(fn, children) -> tuple:
    return tuple(None if c is None else fn(c) for c in children)


# ---------------------------------------------------------------------------
# Variable analysis


def free_vars(node) -> frozenset[str]:
    return _free_vars(require_parsed(node, "term, guard or rule", "free_vars"))


def _free_vars(node) -> frozenset[str]:
    if isinstance(node, Var):
        return frozenset((node.name,))
    binders, outside, inside = parts(node)
    out: set[str] = set()
    for c in inside:
        if c is not None:
            out |= _free_vars(c)
    out.difference_update(binders)
    for c in outside:
        if c is not None:
            out |= _free_vars(c)
    return frozenset(out)


def binder_occurrences(node) -> list[str]:
    """Every binder declaration in source order (duplicates kept)."""
    return [v for n in nodes(node) for v in parts(n)[0]]


def bound_vars(node) -> frozenset[str]:
    return frozenset(binder_occurrences(require_parsed(node, "term, guard or rule", "bound_vars")))


class RuleFacts(NamedTuple):
    """What the evaluator's input contract needs to know of a rule alone."""

    core: bool
    binders: Optional[frozenset[str]]  # None when a binder is declared twice
    free: frozenset[str]
    choose: bool
    imports: bool  # imports, extends or duplicates: the rule withdraws from the reserve


def rule_facts(rule: Rule) -> RuleFacts:
    """The rule's contract facts, computed once per rule object.

    Rules are immutable, so the facts are kept on the rule itself, the way
    ``functools.cached_property`` keeps a value on a ``Value``.
    """
    facts = rule.__dict__.get("_facts")
    if facts is None:
        binders = binder_occurrences(rule)
        unique = frozenset(binders)
        facts = RuleFacts(
            is_core(rule),
            unique if len(unique) == len(binders) else None,
            _free_vars(rule),
            has_choose(rule),
            has_import(rule),
        )
        rule.__dict__["_facts"] = facts
    return facts


def is_perspicuous(rule: Rule, avoid: frozenset[str] | set[str] = frozenset()) -> bool:
    """No variable both bound and free, no binder declared twice, and no
    binder colliding with the caller's name set."""
    facts = rule_facts(require_parsed(rule, "rule", "is_perspicuous"))
    return facts.binders is not None and facts.binders.isdisjoint(facts.free.union(avoid))


# ---------------------------------------------------------------------------
# Substitution and renaming


def subst(node, mapping: Mapping[str, Term]):
    """Replace free occurrences of variables; stops at re-binding sites.

    Replacement terms are assumed not to be captured (callers rename with
    globally fresh names).
    """
    if not mapping:
        return node
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    binders, outside, inside = parts(node)
    inner = {k: v for k, v in mapping.items() if k not in binders} if binders else mapping
    return rebuild(
        node,
        binders,
        _map(lambda c: subst(c, mapping), outside),
        _map(lambda c: subst(c, inner), inside),
    )


def make_perspicuous(rule: Rule, avoid=frozenset()) -> Rule:
    """Alpha-rename binders until the rule is perspicuous for the name set.

    Fresh names are built by priming the original variable, so renamed
    rules stay parseable and readable.  ``used`` only grows, so the search
    for a variable's next fresh name resumes at the last one handed out.
    """
    used = set(avoid) | _free_vars(require_parsed(rule, "rule", "make_perspicuous"))
    last: dict[str, str] = {}

    def walk(node):
        binders, outside, inside = parts(node)
        names = []
        for var in binders:
            if var in used:
                new = last.get(var, var)
                while new in used:
                    new += "'"
                last[var] = new
                inside = _map(lambda c: subst(c, {var: Var(new)}), inside)
                var = new
            used.add(var)
            names.append(var)
        return rebuild(node, names, _map(walk, outside), _map(walk, inside))

    return walk(rule)


def _self_as_variable(node):
    if isinstance(node, App) and node.fname == "Self":
        return Var("Self")
    binders, outside, inside = parts(node)
    return rebuild(
        node, binders, _map(_self_as_variable, outside), _map(_self_as_variable, inside)
    )


# ---------------------------------------------------------------------------
# Desugaring


def guard_from_term(t: Term) -> Guard:
    """Lift a Boolean term into guard syntax so output round-trips."""
    if isinstance(t, App) and t.fname in BOOL_OPS:
        return BoolGuard(t.fname, tuple(guard_from_term(a) for a in t.args))
    return Atom(t)


def _expand(node, active: bool):
    """One node's sugar, its sub-nodes already expanded."""
    if active and isinstance(node, App) and node.fname == "Active" and len(node.args) == 1:
        return App("=", (App("Mod", node.args), App("Mod'", node.args)))
    if active and isinstance(node, Atom):
        return guard_from_term(node.term)
    if active and isinstance(node, UpdateInstr) and node.fname == "Active" \
            and len(node.args) == 1:
        t = node.args[0]
        return Cond(
            (
                (guard_from_term(node.rhs), UpdateInstr("Mod", (t,), App("Mod'", (t,)))),
                (TRUE_GUARD, UpdateInstr("Mod", (t,), App("undef"))),
            )
        )
    if isinstance(node, Extend):
        enrol = tuple(UpdateInstr(node.universe, (Var(v),), App("true")) for v in node.vars)
        body = node.body.rules if isinstance(node.body, Block) else (node.body,)
        node = Import(node.vars, Block(enrol + body))
    if isinstance(node, Import) and len(node.vars) > 1:
        body = node.body
        for v in reversed(node.vars):
            body = Import((v,), body)
        return body
    if isinstance(node, Choose) and len(node.vars) > 1:
        body = Choose(node.vars[-1:], node.universe, node.qualifier, node.body)
        for v in reversed(node.vars[:-1]):
            body = Choose((v,), node.universe, None, body)
        return body
    if isinstance(node, Case):
        clauses = []
        for labels, rule in node.branches:
            eqs = [Atom(App("=", (node.subject, label))) for label in labels]
            g = eqs[0]
            for e in eqs[1:]:
                g = BoolGuard("or", (g, e))
            clauses.append((g, rule))
        if node.else_rule is not None:
            clauses.append((TRUE_GUARD, node.else_rule))
        return Cond(tuple(clauses))
    return node


def desugar(rule: Rule, *, active: bool = False) -> Rule:
    """Expand abbreviations into the core constructors.

    Handled here: multi-variable import/choose, extend, case, and (when the
    program enables it) the Active notation for agent activation.  let is
    already parsed as a declaration over a synthesized singleton range and
    passes through.  The result contains only core constructors and is a
    fixed point of this function.
    """

    def walk(node):
        binders, outside, inside = parts(node)
        return _expand(rebuild(node, binders, _map(walk, outside), _map(walk, inside)), active)

    return walk(require_parsed(rule, "rule", "desugar"))


def is_core(rule: Rule) -> bool:
    return not any(
        isinstance(n, (Extend, Case)) or (isinstance(n, (Import, Choose)) and len(n.vars) != 1)
        for n in nodes(rule)
    )


def is_basic(rule: Rule) -> bool:
    """Basic rules: update instructions combined by blocks and conditionals."""
    return not any(
        isinstance(n, (Import, Choose, Decl, Duplicate, Extend, Case)) for n in nodes(rule)
    )


def has_choose(rule: Rule) -> bool:
    return any(isinstance(n, Choose) for n in nodes(rule))


def has_import(rule: Rule) -> bool:
    return any(isinstance(n, (Import, Extend, Duplicate)) for n in nodes(rule))


# ---------------------------------------------------------------------------
# Pretty printing

# The levels of the operators in terms and guards, loosest first: a higher
# level binds tighter.  ``not`` is prefix, a chain of comparisons means
# their conjunction, and the rest are binary and left-associative.  The
# parser derives its levels from this table.
LEVELS = {"implies": 1, "or": 2, "and": 3, "not": 4, "=": 5, "!=": 5, "<": 5, "+": 6, "mod": 7}


def format_term(t: Term | Guard, prec: int = 0) -> str:
    """A term or a guard in concrete syntax, parenthesized as far as the
    context precedence ``prec`` needs.  An atom prints as its term and a
    Boolean guard as the application of its connective."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Atom):
        return format_term(t.term, prec)
    if isinstance(t, QuantGuard):
        s = f"({t.kind} {t.var} in {t.universe}) {format_term(t.body)}"
        return f"({s})" if prec > 0 else s
    fname, args = (t.op, t.operands) if isinstance(t, BoolGuard) else (t.fname, t.args)
    if fname in ("=", "<", "+", "mod") and len(args) == 2:
        op_prec = LEVELS[fname]
        lhs = format_term(args[0], op_prec if fname in ("=", "<") else op_prec - 1)
        rhs = format_term(args[1], op_prec)
        s = f"{lhs} {fname} {rhs}"
        return f"({s})" if prec >= op_prec else s
    if fname == "not" and len(args) == 1:
        inner = args[0].term if isinstance(args[0], Atom) else args[0]
        if isinstance(inner, App) and inner.fname == "=" and len(inner.args) == 2:
            p = LEVELS["!="]
            s = f"{format_term(inner.args[0], p)} != {format_term(inner.args[1], p)}"
            return f"({s})" if prec >= p else s
        s = f"not {format_term(inner, LEVELS['not'])}"
        return f"({s})" if prec > LEVELS["not"] else s
    if fname in ("and", "or", "implies") and len(args) == 2:
        p = LEVELS[fname]
        lhs = format_term(args[0], p - 1)
        rhs = format_term(args[1], p)
        s = f"{lhs} {fname} {rhs}"
        return f"({s})" if prec >= p else s
    if not args:
        return fname
    return f"{fname}({', '.join(format_term(a) for a in args)})"


def format_rule(rule: Rule, indent: int = 0) -> str:
    require_parsed(rule, "rule", "format_rule")
    return _format_rule(rule, require_int(indent, "format_rule"))


def _format_rule(rule: Rule, indent: int) -> str:
    pad = "  " * indent

    def body_lines(r: Rule, depth: int) -> str:
        if isinstance(r, Block) and r.rules:
            return "\n".join(_format_rule(x, depth) for x in r.rules)
        return _format_rule(r, depth)

    if isinstance(rule, UpdateInstr):
        lhs = format_term(App(rule.fname, rule.args))
        return f"{pad}{lhs} := {format_term(rule.rhs)}"
    if isinstance(rule, Block):
        if not rule.rules:
            return f"{pad}skip"
        return "\n".join(_format_rule(r, indent) for r in rule.rules)
    if isinstance(rule, Cond):
        lines = []
        for i, (g, r) in enumerate(rule.clauses):
            if i == 0:
                lines.append(f"{pad}if {format_term(g)} then")
            elif i == len(rule.clauses) - 1 and g == TRUE_GUARD:
                lines.append(f"{pad}else")
            else:
                lines.append(f"{pad}elseif {format_term(g)} then")
            lines.append(body_lines(r, indent + 1))
        lines.append(f"{pad}endif")
        return "\n".join(lines)
    if isinstance(rule, Import):
        return (
            f"{pad}import {', '.join(rule.vars)}\n"
            f"{body_lines(rule.body, indent + 1)}\n{pad}endimport"
        )
    if isinstance(rule, Choose):
        sat = "" if rule.qualifier is None else f" satisfying {format_term(rule.qualifier)}"
        return (
            f"{pad}choose {', '.join(rule.vars)} in {rule.universe}{sat}\n"
            f"{body_lines(rule.body, indent + 1)}\n{pad}endchoose"
        )
    if isinstance(rule, Decl):
        if isinstance(rule.range, TermRange):
            return (
                f"{pad}let {rule.var} = {format_term(rule.range.term)} in\n"
                f"{body_lines(rule.body, indent + 1)}\n{pad}endlet"
            )
        return (
            f"{pad}Var {rule.var} ranges over {rule.range.universe}\n"
            f"{body_lines(rule.body, indent)}"
        )
    if isinstance(rule, Duplicate):
        return (
            f"{pad}duplicate {format_term(rule.term)} as {rule.var}\n"
            f"{body_lines(rule.body, indent + 1)}\n{pad}endduplicate"
        )
    if isinstance(rule, Extend):
        return (
            f"{pad}extend {rule.universe} with {', '.join(rule.vars)}\n"
            f"{body_lines(rule.body, indent + 1)}\n{pad}endextend"
        )
    if isinstance(rule, Case):
        lines = [f"{pad}case {format_term(rule.subject)} of"]
        inner = "  " * (indent + 1)
        for labels, r in rule.branches:
            lines.append(f"{inner}{', '.join(format_term(t) for t in labels)}:")
            lines.append(body_lines(r, indent + 2))
        if rule.else_rule is not None:
            lines.append(f"{inner}else")
            lines.append(body_lines(rule.else_rule, indent + 2))
        lines.append(f"{pad}endcase")
        return "\n".join(lines)
    raise TypeError(f"format_rule: unsupported node {type(rule).__name__}")
