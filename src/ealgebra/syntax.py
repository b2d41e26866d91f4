"""Abstract syntax for terms, guards, transition rules and programs.

The constructors mirror the rule language: update instructions, blocks
(simultaneous firing), conditionals, import of fresh elements, choice,
explicit variable declarations and duplication, plus the surface
abbreviations (extend, case, let, multi-variable import/choose) that
``desugar`` eliminates.  Everything here is an immutable value; analyses
and transformations return new nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Optional, Union

from .errors import ModeError

if TYPE_CHECKING:
    from .vocabulary import Vocabulary


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    fname: str
    args: tuple["Term", ...] = ()


Term = Union[Var, App]


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(is_ground(a) for a in t.args)


# ---------------------------------------------------------------------------
# Guards

BOOL_OPS = ("and", "or", "not", "implies")


@dataclass(frozen=True)
class Atom:
    """Atomic guard: a Boolean term evaluated for truth."""

    term: Term


@dataclass(frozen=True)
class BoolGuard:
    op: str  # one of BOOL_OPS
    operands: tuple["Guard", ...]


@dataclass(frozen=True)
class QuantGuard:
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


@dataclass(frozen=True)
class UniverseRange:
    universe: str


@dataclass(frozen=True)
class TermRange:
    """Singleton range synthesized for let bindings: one value, evaluated once."""

    term: Term


Range = Union[UniverseRange, TermRange]


# ---------------------------------------------------------------------------
# Rules


@dataclass(frozen=True)
class UpdateInstr:
    fname: str
    args: tuple[Term, ...]
    rhs: Term


@dataclass(frozen=True)
class Block:
    rules: tuple["Rule", ...] = ()


@dataclass(frozen=True)
class Cond:
    clauses: tuple[tuple[Guard, "Rule"], ...]


@dataclass(frozen=True)
class Import:
    vars: tuple[str, ...]
    body: "Rule"


@dataclass(frozen=True)
class Choose:
    vars: tuple[str, ...]
    universe: str
    qualifier: Optional[Term]
    body: "Rule"


@dataclass(frozen=True)
class Decl:
    """Atomic variable declaration followed by a rule."""

    var: str
    range: Range
    body: "Rule"


@dataclass(frozen=True)
class Duplicate:
    term: Term
    var: str
    body: "Rule"


@dataclass(frozen=True)
class Extend:
    """Abbreviation: import fresh elements and put them into a universe."""

    universe: str
    vars: tuple[str, ...]
    body: "Rule"


@dataclass(frozen=True)
class Case:
    subject: Term
    branches: tuple[tuple[tuple[Term, ...], "Rule"], ...]
    else_rule: Optional["Rule"]


Rule = Union[UpdateInstr, Block, Cond, Import, Choose, Decl, Duplicate, Extend, Case]

SKIP = Block(())


# ---------------------------------------------------------------------------
# Programs


@dataclass(frozen=True)
class Program:
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
        """The core rule alpha-renamed so the evaluator's preconditions hold."""
        avoid = {fn.name for fn in self.vocabulary.names}
        return make_perspicuous(self.core_rule, avoid)

    @cached_property
    def has_choose(self) -> bool:
        return has_choose(self.core_rule)


@dataclass(frozen=True)
class DistributedSpec:
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


# ---------------------------------------------------------------------------
# Variable analysis


def free_vars(node) -> frozenset[str]:
    if isinstance(node, Var):
        return frozenset({node.name})
    if isinstance(node, App):
        out = frozenset()
        for a in node.args:
            out |= free_vars(a)
        return out
    if isinstance(node, Atom):
        return free_vars(node.term)
    if isinstance(node, BoolGuard):
        out = frozenset()
        for g in node.operands:
            out |= free_vars(g)
        return out
    if isinstance(node, QuantGuard):
        return free_vars(node.body) - {node.var}
    if isinstance(node, UpdateInstr):
        out = free_vars(node.rhs)
        for a in node.args:
            out |= free_vars(a)
        return out
    if isinstance(node, Block):
        out = frozenset()
        for r in node.rules:
            out |= free_vars(r)
        return out
    if isinstance(node, Cond):
        out = frozenset()
        for g, r in node.clauses:
            out |= free_vars(g) | free_vars(r)
        return out
    if isinstance(node, Import):
        return free_vars(node.body) - set(node.vars)
    if isinstance(node, Choose):
        out = free_vars(node.body)
        if node.qualifier is not None:
            out |= free_vars(node.qualifier)
        return out - set(node.vars)
    if isinstance(node, Decl):
        out = free_vars(node.body) - {node.var}
        if isinstance(node.range, TermRange):
            out |= free_vars(node.range.term)
        return out
    if isinstance(node, Duplicate):
        return free_vars(node.term) | (free_vars(node.body) - {node.var})
    if isinstance(node, Extend):
        return free_vars(node.body) - set(node.vars)
    if isinstance(node, Case):
        out = free_vars(node.subject)
        for labels, rule in node.branches:
            for t in labels:
                out |= free_vars(t)
            out |= free_vars(rule)
        if node.else_rule is not None:
            out |= free_vars(node.else_rule)
        return out
    raise TypeError(f"free_vars: unsupported node {type(node).__name__}")


def bound_vars(node) -> frozenset[str]:
    if isinstance(node, (Var, App)):
        return frozenset()
    if isinstance(node, Atom):
        return frozenset()
    if isinstance(node, BoolGuard):
        out = frozenset()
        for g in node.operands:
            out |= bound_vars(g)
        return out
    if isinstance(node, QuantGuard):
        return bound_vars(node.body) | {node.var}
    if isinstance(node, UpdateInstr):
        return frozenset()
    if isinstance(node, Block):
        out = frozenset()
        for r in node.rules:
            out |= bound_vars(r)
        return out
    if isinstance(node, Cond):
        out = frozenset()
        for g, r in node.clauses:
            out |= bound_vars(g) | bound_vars(r)
        return out
    if isinstance(node, Import):
        return bound_vars(node.body) | set(node.vars)
    if isinstance(node, Choose):
        return bound_vars(node.body) | set(node.vars)
    if isinstance(node, Decl):
        return bound_vars(node.body) | {node.var}
    if isinstance(node, Duplicate):
        return bound_vars(node.body) | {node.var}
    if isinstance(node, Extend):
        return bound_vars(node.body) | set(node.vars)
    if isinstance(node, Case):
        out = frozenset()
        for _, rule in node.branches:
            out |= bound_vars(rule)
        if node.else_rule is not None:
            out |= bound_vars(node.else_rule)
        return out
    raise TypeError(f"bound_vars: unsupported node {type(node).__name__}")


def binder_occurrences(node) -> list[str]:
    """Every binder declaration in source order (duplicates kept)."""
    out: list[str] = []

    def walk(n):
        if isinstance(n, (Var, App, UpdateInstr, Atom)):
            return
        if isinstance(n, BoolGuard):
            for g in n.operands:
                walk(g)
        elif isinstance(n, QuantGuard):
            out.append(n.var)
            walk(n.body)
        elif isinstance(n, Block):
            for r in n.rules:
                walk(r)
        elif isinstance(n, Cond):
            for g, r in n.clauses:
                walk(g)
                walk(r)
        elif isinstance(n, (Import, Extend)):
            out.extend(n.vars)
            walk(n.body)
        elif isinstance(n, Choose):
            out.extend(n.vars)
            walk(n.body)
        elif isinstance(n, Decl):
            out.append(n.var)
            walk(n.body)
        elif isinstance(n, Duplicate):
            out.append(n.var)
            walk(n.body)
        elif isinstance(n, Case):
            for _, r in n.branches:
                walk(r)
            if n.else_rule is not None:
                walk(n.else_rule)

    walk(node)
    return out


def is_perspicuous(rule: Rule, avoid: frozenset[str] | set[str] = frozenset()) -> bool:
    """No variable both bound and free, no binder declared twice, and no
    binder colliding with the caller's name set."""
    binders = binder_occurrences(rule)
    if len(binders) != len(set(binders)):
        return False
    taken = set(avoid) | free_vars(rule)
    return not (set(binders) & taken)


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
    if isinstance(node, App):
        return App(node.fname, tuple(subst(a, mapping) for a in node.args))
    if isinstance(node, Atom):
        return Atom(subst(node.term, mapping))
    if isinstance(node, BoolGuard):
        return BoolGuard(node.op, tuple(subst(g, mapping) for g in node.operands))
    if isinstance(node, QuantGuard):
        inner = {k: v for k, v in mapping.items() if k != node.var}
        return QuantGuard(node.kind, node.var, node.universe, subst(node.body, inner))
    if isinstance(node, UpdateInstr):
        return UpdateInstr(
            node.fname,
            tuple(subst(a, mapping) for a in node.args),
            subst(node.rhs, mapping),
        )
    if isinstance(node, Block):
        return Block(tuple(subst(r, mapping) for r in node.rules))
    if isinstance(node, Cond):
        return Cond(tuple((subst(g, mapping), subst(r, mapping)) for g, r in node.clauses))
    if isinstance(node, Import):
        inner = {k: v for k, v in mapping.items() if k not in node.vars}
        return Import(node.vars, subst(node.body, inner))
    if isinstance(node, Choose):
        inner = {k: v for k, v in mapping.items() if k not in node.vars}
        qual = None if node.qualifier is None else subst(node.qualifier, inner)
        return Choose(node.vars, node.universe, qual, subst(node.body, inner))
    if isinstance(node, Decl):
        rng = node.range
        if isinstance(rng, TermRange):
            rng = TermRange(subst(rng.term, mapping))
        inner = {k: v for k, v in mapping.items() if k != node.var}
        return Decl(node.var, rng, subst(node.body, inner))
    if isinstance(node, Duplicate):
        inner = {k: v for k, v in mapping.items() if k != node.var}
        return Duplicate(subst(node.term, mapping), node.var, subst(node.body, inner))
    if isinstance(node, Extend):
        inner = {k: v for k, v in mapping.items() if k not in node.vars}
        return Extend(node.universe, node.vars, subst(node.body, inner))
    if isinstance(node, Case):
        return Case(
            subst(node.subject, mapping),
            tuple(
                (tuple(subst(t, mapping) for t in labels), subst(r, mapping))
                for labels, r in node.branches
            ),
            None if node.else_rule is None else subst(node.else_rule, mapping),
        )
    raise TypeError(f"subst: unsupported node {type(node).__name__}")


def make_perspicuous(rule: Rule, avoid=frozenset()) -> Rule:
    """Alpha-rename binders until the rule is perspicuous for the name set.

    Fresh names are built by priming the original variable, so renamed
    rules stay parseable and readable.
    """
    used = set(avoid) | free_vars(rule)

    def fresh(base: str) -> str:
        candidate = base
        while candidate in used:
            candidate += "'"
        return candidate

    def rename_binder(var: str, body_parts: list):
        """Pick a stable name for ``var``; substitute in the given parts."""
        if var in used:
            new = fresh(var)
            used.add(new)
            return new, [subst(p, {var: Var(new)}) if p is not None else None for p in body_parts]
        used.add(var)
        return var, body_parts

    def walk(node):
        if isinstance(node, (Var, App, UpdateInstr, Atom)):
            return node
        if isinstance(node, BoolGuard):
            return BoolGuard(node.op, tuple(walk(g) for g in node.operands))
        if isinstance(node, QuantGuard):
            v, (body,) = rename_binder(node.var, [node.body])
            return QuantGuard(node.kind, v, node.universe, walk(body))
        if isinstance(node, Block):
            return Block(tuple(walk(r) for r in node.rules))
        if isinstance(node, Cond):
            return Cond(tuple((walk(g), walk(r)) for g, r in node.clauses))
        if isinstance(node, Import):
            new_vars, body = [], node.body
            for v in node.vars:
                v2, (body,) = rename_binder(v, [body])
                new_vars.append(v2)
            return Import(tuple(new_vars), walk(body))
        if isinstance(node, Choose):
            new_vars, body, qual = [], node.body, node.qualifier
            for v in node.vars:
                v2, (body, qual) = rename_binder(v, [body, qual])
                new_vars.append(v2)
            return Choose(tuple(new_vars), node.universe, qual, walk(body))
        if isinstance(node, Decl):
            v, (body,) = rename_binder(node.var, [node.body])
            return Decl(v, node.range, walk(body))
        if isinstance(node, Duplicate):
            v, (body,) = rename_binder(node.var, [node.body])
            return Duplicate(node.term, v, walk(body))
        if isinstance(node, Extend):
            new_vars, body = [], node.body
            for v in node.vars:
                v2, (body,) = rename_binder(v, [body])
                new_vars.append(v2)
            return Extend(node.universe, tuple(new_vars), walk(body))
        if isinstance(node, Case):
            return Case(
                node.subject,
                tuple((labels, walk(r)) for labels, r in node.branches),
                None if node.else_rule is None else walk(node.else_rule),
            )
        raise TypeError(f"make_perspicuous: unsupported node {type(node).__name__}")

    return walk(rule)


# ---------------------------------------------------------------------------
# Desugaring


def guard_from_term(t: Term) -> Guard:
    """Lift a Boolean term into guard syntax so output round-trips."""
    if isinstance(t, App) and t.fname in BOOL_OPS:
        return BoolGuard(t.fname, tuple(guard_from_term(a) for a in t.args))
    return Atom(t)


def _active_term(t: Term) -> Term:
    """Rewrite Active(x) applications into Mod(x) = Mod'(x)."""
    if isinstance(t, Var):
        return t
    args = tuple(_active_term(a) for a in t.args)
    if t.fname == "Active" and len(args) == 1:
        return App("=", (App("Mod", args), App("Mod'", args)))
    return App(t.fname, args)


def desugar(rule: Rule, *, active: bool = False) -> Rule:
    """Expand abbreviations into the core constructors.

    Handled here: multi-variable import/choose, extend, case, and (when the
    program enables it) the Active notation for agent activation.  let is
    already parsed as a declaration over a synthesized singleton range and
    passes through.  The result contains only core constructors and is a
    fixed point of this function.
    """

    def term(t: Term) -> Term:
        return _active_term(t) if active else t

    def guard(g: Guard) -> Guard:
        if isinstance(g, Atom):
            t = term(g.term)
            return guard_from_term(t) if active else Atom(t)
        if isinstance(g, BoolGuard):
            return BoolGuard(g.op, tuple(guard(x) for x in g.operands))
        return QuantGuard(g.kind, g.var, g.universe, guard(g.body))

    def walk(node: Rule) -> Rule:
        if isinstance(node, UpdateInstr):
            if active and node.fname == "Active" and len(node.args) == 1:
                t = term(node.args[0])
                return Cond(
                    (
                        (guard_from_term(term(node.rhs)),
                         UpdateInstr("Mod", (t,), App("Mod'", (t,)))),
                        (TRUE_GUARD, UpdateInstr("Mod", (t,), App("undef"))),
                    )
                )
            return UpdateInstr(node.fname, tuple(term(a) for a in node.args), term(node.rhs))
        if isinstance(node, Block):
            return Block(tuple(walk(r) for r in node.rules))
        if isinstance(node, Cond):
            return Cond(tuple((guard(g), walk(r)) for g, r in node.clauses))
        if isinstance(node, Import):
            body = walk(node.body)
            for v in reversed(node.vars):
                body = Import((v,), body)
            return body
        if isinstance(node, Choose):
            body = walk(node.body)
            qual = None if node.qualifier is None else term(node.qualifier)
            first = True
            for v in reversed(node.vars):
                body = Choose((v,), node.universe, qual if first else None, body)
                first = False
            return body
        if isinstance(node, Decl):
            rng = node.range
            if isinstance(rng, TermRange):
                rng = TermRange(term(rng.term))
            return Decl(node.var, rng, walk(node.body))
        if isinstance(node, Duplicate):
            return Duplicate(term(node.term), node.var, walk(node.body))
        if isinstance(node, Extend):
            enrol = [UpdateInstr(node.universe, (Var(v),), App("true")) for v in node.vars]
            inner = walk(node.body)
            stmts = tuple(enrol) + (inner.rules if isinstance(inner, Block) else (inner,))
            body: Rule = Block(stmts)
            for v in reversed(node.vars):
                body = Import((v,), body)
            return body
        if isinstance(node, Case):
            subj = term(node.subject)
            clauses = []
            for labels, r in node.branches:
                eqs: list[Guard] = [Atom(App("=", (subj, term(lb)))) for lb in labels]
                g = eqs[0]
                for e in eqs[1:]:
                    g = BoolGuard("or", (g, e))
                clauses.append((g, walk(r)))
            if node.else_rule is not None:
                clauses.append((TRUE_GUARD, walk(node.else_rule)))
            return Cond(tuple(clauses))
        raise TypeError(f"desugar: unsupported node {type(node).__name__}")

    return walk(rule)


CORE_RULE_TYPES = (UpdateInstr, Block, Cond, Import, Choose, Decl, Duplicate)


def is_core(rule: Rule) -> bool:
    if isinstance(rule, UpdateInstr):
        return True
    if isinstance(rule, Block):
        return all(is_core(r) for r in rule.rules)
    if isinstance(rule, Cond):
        return all(is_core(r) for _, r in rule.clauses)
    if isinstance(rule, (Import, Choose)):
        return len(rule.vars) == 1 and is_core(rule.body)
    if isinstance(rule, (Decl, Duplicate)):
        return is_core(rule.body)
    return False


def is_basic(rule: Rule) -> bool:
    """Basic rules: update instructions combined by blocks and conditionals."""
    if isinstance(rule, UpdateInstr):
        return True
    if isinstance(rule, Block):
        return all(is_basic(r) for r in rule.rules)
    if isinstance(rule, Cond):
        return all(is_basic(r) for _, r in rule.clauses)
    return False


def has_choose(rule: Rule) -> bool:
    if isinstance(rule, Choose):
        return True
    if isinstance(rule, Block):
        return any(has_choose(r) for r in rule.rules)
    if isinstance(rule, Cond):
        return any(has_choose(r) for _, r in rule.clauses)
    if isinstance(rule, (Import, Decl, Duplicate, Extend)):
        return has_choose(rule.body)
    if isinstance(rule, Case):
        if any(has_choose(r) for _, r in rule.branches):
            return True
        return rule.else_rule is not None and has_choose(rule.else_rule)
    return False


def has_import(rule: Rule) -> bool:
    if isinstance(rule, (Import, Extend, Duplicate)):
        return True
    if isinstance(rule, Block):
        return any(has_import(r) for r in rule.rules)
    if isinstance(rule, Cond):
        return any(has_import(r) for _, r in rule.clauses)
    if isinstance(rule, (Choose, Decl)):
        return has_import(rule.body)
    if isinstance(rule, Case):
        if any(has_import(r) for _, r in rule.branches):
            return True
        return rule.else_rule is not None and has_import(rule.else_rule)
    return False


# ---------------------------------------------------------------------------
# Pretty printing

# Precedence levels for guard/term connectives; higher binds tighter.
_PREC = {"implies": 1, "or": 2, "and": 3, "not": 4}
_CMP_PREC = 5


def format_term(t: Term, prec: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if t.fname in ("=", "<", "+", "mod") and len(t.args) == 2:
        op_prec = _CMP_PREC if t.fname in ("=", "<") else (7 if t.fname == "+" else 8)
        lhs = format_term(t.args[0], op_prec if t.fname in ("=", "<") else op_prec - 1)
        rhs = format_term(t.args[1], op_prec)
        s = f"{lhs} {t.fname} {rhs}"
        return f"({s})" if prec >= op_prec else s
    if t.fname == "not" and len(t.args) == 1:
        inner = t.args[0]
        if isinstance(inner, App) and inner.fname == "=" and len(inner.args) == 2:
            lhs = format_term(inner.args[0], _CMP_PREC)
            rhs = format_term(inner.args[1], _CMP_PREC)
            s = f"{lhs} != {rhs}"
            return f"({s})" if prec >= _CMP_PREC else s
        s = f"not {format_term(inner, _PREC['not'])}"
        return f"({s})" if prec > _PREC["not"] else s
    if t.fname in ("and", "or", "implies") and len(t.args) == 2:
        p = _PREC[t.fname]
        lhs = format_term(t.args[0], p - 1)
        rhs = format_term(t.args[1], p)
        s = f"{lhs} {t.fname} {rhs}"
        return f"({s})" if prec >= p else s
    if not t.args:
        return t.fname
    return f"{t.fname}({', '.join(format_term(a) for a in t.args)})"


def format_guard(g: Guard, prec: int = 0) -> str:
    if isinstance(g, Atom):
        return format_term(g.term, prec)
    if isinstance(g, QuantGuard):
        s = f"({g.kind} {g.var} in {g.universe}) {format_guard(g.body)}"
        return f"({s})" if prec > 0 else s
    if g.op == "not":
        inner = g.operands[0]
        if isinstance(inner, Atom) and isinstance(inner.term, App) \
                and inner.term.fname == "=" and len(inner.term.args) == 2:
            lhs = format_term(inner.term.args[0], _CMP_PREC)
            rhs = format_term(inner.term.args[1], _CMP_PREC)
            s = f"{lhs} != {rhs}"
            return f"({s})" if prec >= _CMP_PREC else s
        s = f"not {format_guard(inner, _PREC['not'])}"
        return f"({s})" if prec > _PREC["not"] else s
    p = _PREC[g.op]
    lhs = format_guard(g.operands[0], p - 1)
    rhs = format_guard(g.operands[1], p)
    s = f"{lhs} {g.op} {rhs}"
    return f"({s})" if prec >= p else s


def format_rule(rule: Rule, indent: int = 0) -> str:
    pad = "  " * indent

    def body_lines(r: Rule, depth: int) -> str:
        if isinstance(r, Block) and r.rules:
            return "\n".join(format_rule(x, depth) for x in r.rules)
        return format_rule(r, depth)

    if isinstance(rule, UpdateInstr):
        lhs = format_term(App(rule.fname, rule.args))
        return f"{pad}{lhs} := {format_term(rule.rhs)}"
    if isinstance(rule, Block):
        if not rule.rules:
            return f"{pad}skip"
        return "\n".join(format_rule(r, indent) for r in rule.rules)
    if isinstance(rule, Cond):
        lines = []
        for i, (g, r) in enumerate(rule.clauses):
            if i == 0:
                lines.append(f"{pad}if {format_guard(g)} then")
            elif i == len(rule.clauses) - 1 and g == TRUE_GUARD:
                lines.append(f"{pad}else")
            else:
                lines.append(f"{pad}elseif {format_guard(g)} then")
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
