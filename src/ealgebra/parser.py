"""Concrete syntax for program files.

A program file is a header followed by rule text::

    vocabulary:
      dynamic Fork/1, Mode/1
      static relation P/1
      external input/1
    constants think, eat, up, down
    pragma integers mod 3
    alias Me = Self
    program:
      <rule text>

Distributed specifications replace the single ``program:`` section with
one ``module Name:`` section per module; module names double as static
nullary names automatically and every module may mention Self.

Rule text is keyword-delimited: ``if/elseif/else/endif``,
``import/endimport``, ``extend U with v/endextend``,
``choose v in U [satisfying g]/endchoose``, ``Var v ranges over U``,
``let v = t in/endlet``, ``case t of/endcase``,
``duplicate t as v/endduplicate`` and ``skip``.  Statements inside a
block are separated by newlines or commas and fire simultaneously.
Mentioning Reserve anywhere is rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import syntax
from .errors import DeclarationError, ParseError, require_text
from .syntax import (
    App,
    Block,
    BoolGuard,
    Case,
    Choose,
    Cond,
    Decl,
    DistributedSpec,
    Duplicate,
    Extend,
    Import,
    Program,
    QuantGuard,
    TermRange,
    UniverseRange,
    Var,
)
from .vocabulary import IDENTIFIER, INTEGER, FunctionName, Vocabulary, fun_of, make_vocabulary

_KEYWORDS = {
    "if", "then", "elseif", "else", "endif",
    "import", "endimport",
    "extend", "with", "endextend",
    "choose", "in", "satisfying", "endchoose",
    "Var", "ranges", "range", "over",
    "let", "endlet",
    "case", "of", "endcase",
    "duplicate", "as", "endduplicate",
    "skip",
    "and", "or", "not", "implies", "mod",
    "exists", "forall",
}

_OPS = (":=", "!=", "=", "<", "(", ")", ",", "+", ":", "/")


@dataclass
class _Tok:
    kind: str  # ident | int | kw | op | newline | eof
    text: str
    line: int
    col: int


def _scan(text: str, first_line: int = 1) -> list[_Tok]:
    toks: list[_Tok] = []
    for lineno, raw in enumerate(text.splitlines(), start=first_line):
        line = raw.split("#", 1)[0]
        pos, n = 0, len(line)
        emitted = False
        while pos < n:
            ch = line[pos]
            if ch in " \t":
                pos += 1
                continue
            m = IDENTIFIER.match(line, pos)
            if m:
                word = m.group(0)
                kind = "kw" if word in _KEYWORDS else "ident"
                toks.append(_Tok(kind, word, lineno, pos + 1))
                pos = m.end()
                emitted = True
                continue
            m = INTEGER.match(line, pos)
            if m:
                toks.append(_Tok("int", m.group(0), lineno, pos + 1))
                pos = m.end()
                emitted = True
                continue
            for op in _OPS:
                if line.startswith(op, pos):
                    toks.append(_Tok("op", op, lineno, pos + 1))
                    pos += len(op)
                    emitted = True
                    break
            else:
                raise ParseError(f"unexpected character {ch!r}", lineno, pos + 1)
        if emitted:
            toks.append(_Tok("newline", "", lineno, n + 1))
    last = toks[-1].line if toks else first_line
    toks.append(_Tok("eof", "", last, 1))
    return toks


_CMP_OPS = {"=", "!=", "<"}


class _RuleParser:
    def __init__(
        self,
        toks: list[_Tok],
        vocabulary: Vocabulary,
        *,
        aliases: dict[str, str] | None = None,
        allow_self: bool = False,
        active: bool = False,
        scope: tuple[str, ...] = (),
    ):
        self.toks = toks
        self.pos = 0
        self.vocab = vocabulary
        self.aliases = aliases or {}
        self.allow_self = allow_self
        self.active = active
        self.scope: list[str] = list(scope)

    # -- token plumbing

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Tok | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise self.fail(f"expected {want!r}, found {tok.text or tok.kind!r}")
        return self.next()

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.next()

    def parse_whole(self, parse):
        """Run ``parse`` over the whole input: only newlines may surround it."""
        self.skip_newlines()
        result = parse()
        self.skip_newlines()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return result

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text in words

    def expect_ident(self) -> _Tok:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(f"expected an identifier, found {tok.text or tok.kind!r}")
        return self.next()

    # -- names

    def resolve(self, name: str) -> str:
        return self.aliases.get(name, name)

    def check_universe(self, tok: _Tok) -> str:
        name = self.resolve(tok.text)
        if name == "Reserve":
            raise self.fail("mentioning Reserve is forbidden", tok)
        if not self.vocab.is_universe_name(name):
            raise self.fail(f"{name}: not a universe (unary relation) name", tok)
        return name

    def bind(self, names: list[str]):
        self.scope.extend(names)

    def unbind(self, count: int):
        del self.scope[len(self.scope) - count:]

    # -- terms

    def parse_term(self) -> syntax.Term:
        return self._impl(mode="term")

    def parse_guard(self) -> syntax.Guard:
        return self._impl(mode="guard")

    def _impl(self, mode: str):
        left = self._or(mode)
        while self.at_kw("implies"):
            self.next()
            right = self._or(mode)
            left = self._join("implies", left, right, mode)
        return left

    def _or(self, mode):
        left = self._and(mode)
        while self.at_kw("or"):
            self.next()
            left = self._join("or", left, self._and(mode), mode)
        return left

    def _and(self, mode):
        left = self._not(mode)
        while self.at_kw("and"):
            self.next()
            left = self._join("and", left, self._not(mode), mode)
        return left

    def _not(self, mode):
        if self.at_kw("not"):
            self.next()
            inner = self._not(mode)
            if mode == "term":
                return App("not", (inner,))
            return BoolGuard("not", (inner,))
        return self._comparison(mode)

    def _join(self, op: str, left, right, mode):
        if mode == "term":
            return App(op, (left, right))
        return BoolGuard(op, (left, right))

    def _comparison(self, mode):
        if mode == "guard":
            quant = self._guard_primary_quant()
            if quant is not None:
                return quant
        first = self._additive()
        chain: list[tuple[str, syntax.Term]] = []
        while self.peek().kind == "op" and self.peek().text in _CMP_OPS:
            op = self.next().text
            chain.append((op, self._additive()))
        if not chain:
            if mode == "guard":
                if not is_boolean_term(first, self.vocab, active=self.active):
                    raise self.fail("guard must be a Boolean term")
                return syntax.guard_from_term(first)
            return first
        parts = []
        left = first
        for op, right in chain:
            if op == "=":
                part = App("=", (left, right))
            elif op == "<":
                part = App("<", (left, right))
            else:
                part = App("not", (App("=", (left, right)),))
            parts.append(part)
            left = right
        out = parts[0]
        for p in parts[1:]:
            out = App("and", (out, p))
        return syntax.guard_from_term(out) if mode == "guard" else out

    def _additive(self) -> syntax.Term:
        left = self._multiplicative()
        while self.peek().kind == "op" and self.peek().text == "+":
            tok = self.next()
            self._need_integers(tok)
            left = App("+", (left, self._multiplicative()))
        return left

    def _multiplicative(self) -> syntax.Term:
        left = self._primary()
        while self.at_kw("mod"):
            tok = self.next()
            self._need_integers(tok)
            left = App("mod", (left, self._primary()))
        return left

    def _need_integers(self, tok: _Tok):
        if not self.vocab.integers:
            raise self.fail("integer operations need `pragma integers`", tok)

    def _primary(self) -> syntax.Term:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.next()
            inner = self._impl(mode="term")
            self.expect("op", ")")
            return inner
        if tok.kind == "int":
            self._need_integers(tok)
            self.next()
            return App(tok.text)
        if tok.kind == "ident":
            self.next()
            name = self.resolve(tok.text)
            if name == "Reserve":
                raise self.fail("mentioning Reserve is forbidden", tok)
            if name in self.scope:
                return Var(name)
            fn = self.vocab.lookup(name)
            if fn is None:
                raise self.fail(f"unknown identifier: {name}", tok)
            if name == "Self" and not self.allow_self:
                raise self.fail("Self is only available inside modules", tok)
            args: tuple[syntax.Term, ...] = ()
            if self.peek().kind == "op" and self.peek().text == "(":
                self.next()
                items = [self._impl(mode="term")]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.next()
                    items.append(self._impl(mode="term"))
                self.expect("op", ")")
                args = tuple(items)
            if len(args) != fn.arity:
                raise self.fail(
                    f"{name}: expected {fn.arity} arguments, got {len(args)}", tok
                )
            return App(name, args)
        raise self.fail(f"expected a term, found {tok.text or tok.kind!r}")

    # -- guards: quantifier primaries hook into _comparison via _additive's
    #    primary, so they are caught here before term parsing.

    def _guard_primary_quant(self) -> syntax.Guard | None:
        if self.peek().kind == "op" and self.peek().text == "(" and \
                self.peek(1).kind == "kw" and self.peek(1).text in ("exists", "forall"):
            self.next()
            kind = self.next().text
            var = self.expect_ident().text
            self.expect("kw", "in")
            universe = self.check_universe(self.expect_ident())
            self.expect("op", ")")
            self.bind([var])
            body = self._impl(mode="guard")
            self.unbind(1)
            return QuantGuard(kind, var, universe, body)
        return None

    # -- rules

    def parse_rule(self, stop: frozenset[str], case: bool = False) -> syntax.Rule:
        """Statements up to a keyword of ``stop``; in a ``case`` body, also
        up to the line that labels the next branch."""
        stmts: list[syntax.Rule] = []
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == "eof" or (tok.kind == "kw" and tok.text in stop):
                break
            if case and self._looks_like_label():
                break
            if tok.kind == "op" and tok.text == ",":
                self.next()
                continue
            if self.at_kw("Var"):
                stmts.append(self._parse_decl(stop))
                break
            stmts.append(self._parse_statement(stop))
        if len(stmts) == 1:
            return stmts[0]
        return Block(tuple(stmts))

    def _parse_decl(self, stop: frozenset[str]) -> syntax.Rule:
        self.expect("kw", "Var")
        names = self._parse_var_list()
        if self.at_kw("ranges", "range"):
            self.next()
        else:
            raise self.fail("expected 'ranges over'")
        self.expect("kw", "over")
        universe = self.check_universe(self.expect_ident())
        self.bind(names)
        body = self.parse_rule(stop)
        self.unbind(len(names))
        for name in reversed(names):
            body = Decl(name, UniverseRange(universe), body)
        return body

    def _parse_statement(self, outer_stop: frozenset[str]) -> syntax.Rule:
        if self.at_kw("skip"):
            self.next()
            return syntax.SKIP
        if self.at_kw("if"):
            return self._parse_cond()
        if self.at_kw("import"):
            return self._parse_import()
        if self.at_kw("extend"):
            return self._parse_extend()
        if self.at_kw("choose"):
            return self._parse_choose()
        if self.at_kw("let"):
            return self._parse_let()
        if self.at_kw("case"):
            return self._parse_case()
        if self.at_kw("duplicate"):
            return self._parse_duplicate()
        return self._parse_update()

    def _parse_update(self) -> syntax.Rule:
        tok = self.peek()
        lhs = self.parse_term()
        self.expect("op", ":=")
        rhs = self.parse_term()
        if isinstance(lhs, Var):
            raise self.fail("a variable cannot be the subject of an update", tok)
        fn = self.vocab.require(lhs.fname)
        if self.active and lhs.fname == "Active":
            pass  # expands to a Mod/Mod' conditional during desugaring
        elif fn.is_static:
            raise self.fail(f"{fn.name}: static names cannot be updated", tok)
        elif fn.is_logic:
            raise self.fail(f"{fn.name}: logic names cannot be updated", tok)
        if (fn.is_relation or (self.active and lhs.fname == "Active")) and \
                not is_boolean_term(rhs, self.vocab, active=self.active):
            raise self.fail(f"{fn.name}: relational update needs a Boolean term", tok)
        return syntax.UpdateInstr(lhs.fname, lhs.args, rhs)

    def _parse_cond(self) -> syntax.Rule:
        self.expect("kw", "if")
        clauses = []
        guard = self.parse_guard()
        self.expect("kw", "then")
        body = self.parse_rule(frozenset({"elseif", "else", "endif"}))
        clauses.append((guard, body))
        while self.at_kw("elseif"):
            self.next()
            guard = self.parse_guard()
            self.expect("kw", "then")
            clauses.append((guard, self.parse_rule(frozenset({"elseif", "else", "endif"}))))
        if self.at_kw("else"):
            self.next()
            clauses.append((syntax.TRUE_GUARD, self.parse_rule(frozenset({"endif"}))))
        self.expect("kw", "endif")
        return Cond(tuple(clauses))

    def _parse_var_list(self) -> list[str]:
        names = [self.expect_ident().text]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.next()
            names.append(self.expect_ident().text)
        return names

    def _parse_import(self) -> syntax.Rule:
        self.expect("kw", "import")
        names = self._parse_var_list()
        self.bind(names)
        body = self.parse_rule(frozenset({"endimport"}))
        self.unbind(len(names))
        self.expect("kw", "endimport")
        return Import(tuple(names), body)

    def _parse_extend(self) -> syntax.Rule:
        self.expect("kw", "extend")
        universe_tok = self.expect_ident()
        universe = self.check_universe(universe_tok)
        fn = self.vocab.require(universe)
        if fn.is_static or fn.is_logic:
            raise self.fail(f"{universe}: cannot extend a static universe", universe_tok)
        self.expect("kw", "with")
        names = self._parse_var_list()
        self.bind(names)
        body = self.parse_rule(frozenset({"endextend"}))
        self.unbind(len(names))
        self.expect("kw", "endextend")
        return Extend(universe, tuple(names), body)

    def _parse_choose(self) -> syntax.Rule:
        self.expect("kw", "choose")
        names = self._parse_var_list()
        self.expect("kw", "in")
        universe = self.check_universe(self.expect_ident())
        self.bind(names)
        qualifier = None
        if self.at_kw("satisfying"):
            tok = self.next()
            qualifier = self.parse_term()
            if not is_boolean_term(qualifier, self.vocab, active=self.active):
                raise self.fail("satisfying needs a Boolean term", tok)
        body = self.parse_rule(frozenset({"endchoose"}))
        self.unbind(len(names))
        self.expect("kw", "endchoose")
        return Choose(tuple(names), universe, qualifier, body)

    def _parse_let(self) -> syntax.Rule:
        self.expect("kw", "let")
        name = self.expect_ident().text
        self.expect("op", "=")
        term = self.parse_term()
        self.expect("kw", "in")
        self.bind([name])
        body = self.parse_rule(frozenset({"endlet"}))
        self.unbind(1)
        self.expect("kw", "endlet")
        return Decl(name, TermRange(term), body)

    def _parse_duplicate(self) -> syntax.Rule:
        self.expect("kw", "duplicate")
        term = self.parse_term()
        self.expect("kw", "as")
        name = self.expect_ident().text
        self.bind([name])
        body = self.parse_rule(frozenset({"endduplicate"}))
        self.unbind(1)
        self.expect("kw", "endduplicate")
        return Duplicate(term, name, body)

    def _looks_like_label(self) -> bool:
        """Within a case body: does the upcoming line introduce a new branch?"""
        depth = 0
        ahead = 0
        while True:
            tok = self.peek(ahead)
            if tok.kind in ("newline", "eof"):
                return False
            if tok.kind == "op":
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    depth -= 1
                elif tok.text == ":" and depth == 0:
                    return True
                elif tok.text == ":=":
                    return False
            ahead += 1

    def _parse_case(self) -> syntax.Rule:
        self.expect("kw", "case")
        subject = self.parse_term()
        self.expect("kw", "of")
        branches = []
        else_rule = None
        stop = frozenset({"endcase", "else"})
        while True:
            self.skip_newlines()
            if self.at_kw("endcase"):
                break
            if self.at_kw("else"):
                self.next()
                else_rule = self.parse_rule(stop, case=True)
                break
            labels = [self.parse_term()]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.next()
                labels.append(self.parse_term())
            self.expect("op", ":")
            branches.append((tuple(labels), self.parse_rule(stop, case=True)))
        self.expect("kw", "endcase")
        if not branches:
            raise self.fail("case needs at least one branch")
        return Case(subject, tuple(branches), else_rule)


def is_boolean_term(t: syntax.Term, vocabulary: Vocabulary, *, active: bool = False) -> bool:
    """Boolean terms: relation applications combined by Boolean operations."""
    if isinstance(t, Var):
        return False
    if t.fname in syntax.BOOL_OPS:
        return all(is_boolean_term(a, vocabulary, active=active) for a in t.args)
    if active and t.fname == "Active":
        return True
    fn = vocabulary.lookup(t.fname)
    return fn is not None and fn.is_relation


# ---------------------------------------------------------------------------
# External-function checks


def _check_external_nesting(rule: syntax.Rule, externals: frozenset[str]):
    """External functions cannot be nested inside one another's arguments."""
    if not externals:
        return
    for node in syntax.nodes(rule):
        if isinstance(node, syntax.UpdateInstr) and node.fname in externals:
            raise ParseError(f"{node.fname}: external functions cannot be updated")
        if isinstance(node, App) and node.fname in externals:
            for arg in node.args:
                for inner in syntax.nodes(arg):
                    if isinstance(inner, App) and inner.fname in externals:
                        raise ParseError(f"{inner.fname}: external functions cannot be nested")


# ---------------------------------------------------------------------------
# Header parsing

_DECL_WORDS = ("dynamic", "static", "relation", "external")
_NAME_ARITY_RE = re.compile(rf"({IDENTIFIER.pattern})\s*/\s*({INTEGER.pattern})")


@dataclass
class _Header:
    declared: list[FunctionName]
    externals: set[str]
    constants: list[str]
    integers: bool = False
    modulus: int | None = None
    active: bool = False
    aliases: dict[str, str] | None = None


def _parse_decl_line(line: str, lineno: int, header: _Header):
    words = line.split()
    flag = words[0]
    rest = line[len(flag):].strip()
    is_relation = False
    if rest.startswith("relation "):
        is_relation = True
        rest = rest[len("relation "):]
    if flag == "relation":
        is_relation = True
    entries = [e.strip() for e in rest.split(",") if e.strip()]
    if not entries:
        raise ParseError("empty declaration", lineno, 1)
    for entry in entries:
        m = _NAME_ARITY_RE.fullmatch(entry)
        if m is None:
            raise ParseError(f"expected name/arity, found {entry!r}", lineno, 1)
        name, arity = m.group(1), int(m.group(2))
        header.declared.append(
            FunctionName(name, arity, is_relation=is_relation, is_static=(flag == "static"))
        )
        if flag == "external":
            header.externals.add(name)


def _parse_header_line(line: str, lineno: int, header: _Header):
    if line == "vocabulary:":
        return
    first = line.split()[0]
    if first in _DECL_WORDS:
        _parse_decl_line(line, lineno, header)
        return
    if first == "constants":
        names = [n.strip() for n in line[len("constants"):].split(",") if n.strip()]
        for name in names:
            if not IDENTIFIER.fullmatch(name):
                raise ParseError(f"bad constant name: {name!r}", lineno, 1)
            header.declared.append(FunctionName(name, 0, is_static=True))
            header.constants.append(name)
        return
    if first == "pragma":
        words = line.split()
        if words[1:2] == ["integers"]:
            header.integers = True
            if len(words) == 4 and words[2] == "mod" and INTEGER.fullmatch(words[3]):
                header.modulus = int(words[3])
                if header.modulus < 1:
                    raise ParseError("modulus must be positive", lineno, 1)
            elif len(words) != 2:
                raise ParseError("usage: pragma integers [mod N]", lineno, 1)
            return
        if words[1:] == ["active"]:
            header.active = True
            return
        raise ParseError(f"unknown pragma: {line!r}", lineno, 1)
    if first == "alias":
        m = re.fullmatch(rf"alias\s+({IDENTIFIER.pattern})\s*=\s*({IDENTIFIER.pattern})", line)
        if m is None:
            raise ParseError("usage: alias Name = Target", lineno, 1)
        header.aliases[m.group(1)] = m.group(2)
        return
    raise ParseError(f"unexpected header line: {line!r}", lineno, 1)


def _permissive_vocabulary(header: _Header) -> Vocabulary:
    extra = []
    if header.active:
        extra.append(FunctionName("Active", 1, is_relation=True))
    return make_vocabulary(
        header.declared + extra,
        with_reserve=True,
        with_self=True,
        integers=header.integers,
        modulus=header.modulus,
    )


def _parse_rule_section(
    text: str,
    first_line: int,
    header: _Header,
    *,
    allow_self: bool,
) -> syntax.Rule:
    toks = _scan(text, first_line)
    parser = _RuleParser(
        toks,
        _permissive_vocabulary(header),
        aliases=header.aliases,
        allow_self=allow_self,
        active=header.active,
    )
    rule = parser.parse_whole(lambda: parser.parse_rule(frozenset()))
    free = syntax.free_vars(rule)
    if free:
        raise ParseError(f"undeclared variables: {', '.join(sorted(free))}")
    _check_external_nesting(rule, frozenset(header.externals))
    if header.active and not ("Mod" in {f.name for f in header.declared}
                              and "Mod'" in {f.name for f in header.declared}):
        raise DeclarationError("pragma active needs Mod/1 and Mod'/1 declared")
    return rule


_MODULE_RE = re.compile(r"module\s+(\S+)\s*:")


def _module_name(line: str, lineno: int) -> str | None:
    """The module a ``module Name:`` line opens; None for any other line.

    A header whose name is no identifier is a ``ParseError``.
    """
    m = _MODULE_RE.fullmatch(line)
    if m is None:
        return None
    if not IDENTIFIER.fullmatch(m.group(1)):
        raise ParseError(f"bad module name: {m.group(1)!r}", lineno, 1)
    return m.group(1)


def parse_program(text: str) -> Program | DistributedSpec:
    """Parse a program file into a Program or a DistributedSpec."""
    require_text(text, "parse_program")
    header = _Header(declared=[], externals=set(), constants=[], aliases={})
    lines = text.splitlines()
    body_start = None
    modules: list[tuple[str, int]] = []  # (name, first body line index)
    for idx, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name = _module_name(line, idx + 1)
        if name:
            modules.append((name, idx + 1))
        elif modules:  # rule text of a module section
            continue
        elif line == "program:":
            body_start = idx + 1
            break
        else:
            _parse_header_line(line, idx + 1, header)
    if body_start is None and not modules:
        raise ParseError("missing `program:` or `module Name:` section")

    if body_start is not None:
        rule_text = "\n".join(lines[body_start:])
        rule = _parse_rule_section(rule_text, body_start + 1, header, allow_self=False)
        vocabulary = make_vocabulary(
            header.declared,
            with_reserve=syntax.has_import(rule),
            integers=header.integers,
            modulus=header.modulus,
        )
        return Program(
            vocabulary=vocabulary,
            rule=rule,
            externals=frozenset(header.externals),
            constants=tuple(dict.fromkeys(header.constants)),
            active_sugar=header.active,
        )

    module_names = [name for name, _ in modules]
    for i, name in enumerate(module_names):
        if name in module_names[:i]:
            raise ParseError(f"module {name} declared twice")
        header.declared.append(FunctionName(name, 0, is_static=True))
        header.constants.append(name)
    if "Mod" not in {fn.name for fn in header.declared}:
        header.declared.append(FunctionName("Mod", 1))

    programs = []
    bounds = [start for _, start in modules] + [len(lines) + 1]
    for (name, start), end in zip(modules, bounds[1:]):
        chunk = "\n".join(lines[start:end - 1])
        programs.append((name, _parse_rule_section(chunk, start + 1, header, allow_self=True)))
    any_import = any(syntax.has_import(rule) for _, rule in programs)

    shared = make_vocabulary(
        header.declared,
        with_reserve=any_import,
        integers=header.integers,
        modulus=header.modulus,
    )
    all_constants = tuple(dict.fromkeys(header.constants))
    module_programs = []
    for name, rule in programs:
        used = fun_of(syntax.desugar(rule, active=header.active))
        local_decl = [fn for fn in header.declared if fn.name in used]
        local_vocab = make_vocabulary(
            local_decl,
            with_reserve=syntax.has_import(rule),
            with_self=True,
            integers=header.integers,
            modulus=header.modulus,
        )
        module_programs.append((name, Program(
            vocabulary=local_vocab,
            rule=rule,
            externals=frozenset(header.externals) & used,
            constants=tuple(c for c in all_constants if c in used),
            name=name,
            active_sugar=header.active,
        )))
    return DistributedSpec(
        module_list=tuple(module_programs),
        vocabulary=shared,
        constants=all_constants,
    )


def parse_program_file(path) -> Program | DistributedSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())


def parse_rule_text(
    text: str, vocabulary: Vocabulary, *, scope: tuple[str, ...] = ()
) -> syntax.Rule:
    """Parse rule text against an existing vocabulary (tests, fragments);
    the names in ``scope`` are variables bound outside the text."""
    parser = _RuleParser(_scan(require_text(text, "parse_rule_text")), vocabulary, scope=scope)
    return parser.parse_whole(lambda: parser.parse_rule(frozenset()))


def parse_guard_text(text: str, vocabulary: Vocabulary) -> syntax.Guard:
    parser = _RuleParser(_scan(require_text(text, "parse_guard_text")), vocabulary)
    return parser.parse_whole(parser.parse_guard)


def parse_term_text(text: str, vocabulary: Vocabulary) -> syntax.Term:
    parser = _RuleParser(_scan(require_text(text, "parse_term_text")), vocabulary)
    return parser.parse_whole(parser.parse_term)


# ---------------------------------------------------------------------------
# Program formatting


def _format_header(vocabulary: Vocabulary, externals, constants) -> list[str]:
    groups: dict[tuple[bool, bool], list[str]] = {}
    for fn in vocabulary.user_names():
        if fn.name in constants or fn.name in externals:
            continue
        groups.setdefault((fn.is_static, fn.is_relation), []).append(
            f"{fn.name}/{fn.arity}"
        )
    lines = ["vocabulary:"]
    for (static, relation), entries in sorted(groups.items()):
        flag = "static" if static else "dynamic"
        rel = " relation" if relation else ""
        lines.append(f"  {flag}{rel} {', '.join(entries)}")
    for name in sorted(externals):
        fn = vocabulary.require(name)
        rel = " relation" if fn.is_relation else ""
        lines.append(f"  external{rel} {name}/{fn.arity}")
    if constants:
        lines.append(f"constants {', '.join(constants)}")
    if vocabulary.integers:
        suffix = f" mod {vocabulary.modulus}" if vocabulary.modulus else ""
        lines.append(f"pragma integers{suffix}")
    return lines


def format_program(program: Program) -> str:
    lines = _format_header(program.vocabulary, program.externals, program.constants)
    if program.active_sugar:
        lines.append("pragma active")
    lines.append("program:")
    lines.append(syntax.format_rule(program.rule, indent=1))
    return "\n".join(lines) + "\n"
