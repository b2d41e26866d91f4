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

Operators in terms and guards, loosest first:

====================  ==================================================
``implies``           binary
``or``                binary
``and``               binary
``not``               prefix
``=``, ``!=``, ``<``  comparisons; a chain ``a = b < c`` means
                      ``a = b and b < c``
``+``                 binary, needs ``pragma integers``
``mod``               binary, needs ``pragma integers``
====================  ==================================================

Binary operators are left-associative.  A guard may also be a quantifier
``(exists v in U) g`` or ``(forall v in U) g`` wherever a comparison may
stand; its body ``g`` extends as far as it can.  Mentioning Reserve
anywhere is rejected.
"""

from __future__ import annotations

import re

from . import syntax
from .errors import DeclarationError, ParseError, require, require_text
from .stateio import text_lines
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

# One token after any blanks: an identifier, an integer or an operator,
# tried in that order; any other character is unexpected.
_TOKEN = re.compile(
    rf"[ \t]*(?:(?P<ident>{IDENTIFIER.pattern})|(?P<int>{INTEGER.pattern})"
    rf"|(?P<op>{'|'.join(map(re.escape, _OPS))})|(?P<bad>[^ \t]))"
)


class _Tok:
    """A token: its kind (ident, int, kw, op, newline or eof), text and
    position.  Slots, since the parser reads them more than anything."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind, self.text, self.line, self.col = kind, text, line, col


def _scan(text: str, first_line: int = 1) -> list[_Tok]:
    toks: list[_Tok] = []
    for lineno, raw in enumerate(text.splitlines(), start=first_line):
        line = raw.split("#", 1)[0]
        count = len(toks)
        for m in _TOKEN.finditer(line):
            kind, word, col = m.lastgroup, m[m.lastgroup], m.start(m.lastgroup) + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {word!r}", lineno, col)
            if kind == "ident" and word in _KEYWORDS:
                kind = "kw"
            toks.append(_Tok(kind, word, lineno, col))
        if len(toks) > count:
            toks.append(_Tok("newline", "", lineno, len(line) + 1))
    last = toks[-1].line if toks else first_line
    # Two: ``next`` stops at the first, and ``peek(1)`` may look past it.
    toks += [_Tok("eof", "", last, 1)] * 2
    return toks


# From syntax.LEVELS: the level of ``not``, the comparisons' level just
# above it, and the binary operators' levels by token text (no identifier
# spells a keyword).
_NOT, _CMP, _SUM = syntax.LEVELS["not"], syntax.LEVELS["="], syntax.LEVELS["+"]
_CMP_OPS = {op for op, level in syntax.LEVELS.items() if level == _CMP}
_BINARY = {op: level for op, level in syntax.LEVELS.items() if level not in (_NOT, _CMP)}


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
        return self.toks[self.pos + ahead]

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

    def accept(self, kind: str, text: str) -> _Tok | None:
        """The next token, consumed, if it is ``text`` of ``kind``."""
        tok = self.peek()
        return self.next() if tok.kind == kind and tok.text == text else None

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.next()

    def parse_whole(self, parse):
        """``parse(self)`` over the whole input: only newlines may surround
        it.  Nesting too deep for the interpreter's stack is a ParseError at
        the token where the stack ran out."""
        self.skip_newlines()
        try:
            result = parse(self)
        except RecursionError:
            raise self.fail("nesting too deep") from None
        self.skip_newlines()
        if self.peek().kind != "eof":
            raise self.fail(f"unexpected {self.peek().text!r}")
        return result

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text in words

    def expect_ident(self) -> _Tok:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(f"expected an identifier, found {tok.text or tok.kind!r}")
        return self.next()

    def _list(self, item) -> list:
        """``item()`` once, then once more after each comma."""
        items = [item()]
        while self.accept("op", ","):
            items.append(item())
        return items

    def _names(self) -> list[str]:
        return self._list(lambda: self.expect_ident().text)

    # -- names

    def resolve(self, tok: _Tok) -> str:
        """The name ``tok`` stands for, its alias followed; never Reserve."""
        name = self.aliases.get(tok.text, tok.text)
        if name == "Reserve":
            raise self.fail("mentioning Reserve is forbidden", tok)
        return name

    def check_universe(self, tok: _Tok) -> str:
        name = self.resolve(tok)
        if not self.vocab.is_universe_name(name):
            raise self.fail(f"{name}: not a universe (unary relation) name", tok)
        return name

    def _scoped(self, names: list[str], end: str) -> syntax.Rule:
        """The body a binder of ``names`` scopes over, and its ``end`` keyword."""
        self.scope.extend(names)
        body = self.parse_rule(frozenset({end}))
        del self.scope[len(self.scope) - len(names):]
        self.expect("kw", end)
        return body

    # -- terms and guards

    def parse_term(self) -> syntax.Term:
        return self._binary("term", 1)

    def parse_guard(self) -> syntax.Guard:
        return self._binary("guard", 1)

    def _binary(self, mode: str, floor: int):
        """The operators of level ``floor`` and tighter, left-associative;
        in a guard the Boolean ones make guards, elsewhere terms."""
        make = App if mode == "term" else BoolGuard
        if floor > _NOT:
            left = self._primary()
        else:
            nots = 0
            while self.accept("kw", "not"):
                nots += 1
            left = self._comparison(mode)
            for _ in range(nots):
                left = make("not", (left,))
        while (level := _BINARY.get(self.peek().text, 0)) >= floor:
            tok = self.next()
            if level >= _SUM:
                self._need_integers(tok)
            left = make(tok.text, (left, self._binary(mode, level + 1)))
        return left

    def _comparison(self, mode: str):
        """A quantified guard, a chain of comparisons, or one term, which
        must be Boolean in a guard."""
        if mode == "guard" and self.peek(1).text in ("exists", "forall") \
                and self.accept("op", "("):
            return self._quantified()
        left = self._binary("term", _SUM)
        out = None
        while (tok := self.peek()).kind == "op" and tok.text in _CMP_OPS:
            self.next()
            right = self._binary("term", _SUM)
            if tok.text == "!=":
                part = App("not", (App("=", (left, right)),))
            else:
                part = App(tok.text, (left, right))
            out = part if out is None else App("and", (out, part))
            left = right
        if out is None:
            if mode == "guard" and not is_boolean_term(left, self.vocab, active=self.active):
                raise self.fail("guard must be a Boolean term")
            out = left
        return syntax.guard_from_term(out) if mode == "guard" else out

    def _quantified(self) -> syntax.Guard:
        kind = self.next().text
        var = self.expect_ident().text
        self.expect("kw", "in")
        universe = self.check_universe(self.expect_ident())
        self.expect("op", ")")
        self.scope.append(var)
        body = self.parse_guard()
        self.scope.pop()
        return QuantGuard(kind, var, universe, body)

    def _need_integers(self, tok: _Tok):
        if not self.vocab.integers:
            raise self.fail("integer operations need `pragma integers`", tok)

    def _primary(self) -> syntax.Term:
        tok = self.peek()
        if self.accept("op", "("):
            inner = self._binary("term", 1)
            self.expect("op", ")")
            return inner
        if tok.kind == "int":
            self._need_integers(tok)
            self.next()
            return App(tok.text)
        if tok.kind != "ident":
            raise self.fail(f"expected a term, found {tok.text or tok.kind!r}")
        self.next()
        name = self.resolve(tok)
        if name in self.scope:
            return Var(name)
        fn = self.vocab.lookup(name)
        if fn is None:
            raise self.fail(f"unknown identifier: {name}", tok)
        if name == "Self" and not self.allow_self:
            raise self.fail("Self is only available inside modules", tok)
        args = []
        if self.accept("op", "("):
            args = self._list(self.parse_term)
            self.expect("op", ")")
        if len(args) != fn.arity:
            raise self.fail(f"{name}: expected {fn.arity} arguments, got {len(args)}", tok)
        return App(name, tuple(args))

    # -- rules

    def parse_rule(self, stop: frozenset[str] = frozenset(), case: bool = False) -> syntax.Rule:
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
            if self.accept("op", ","):
                continue
            if self.accept("kw", "Var"):
                stmts.append(self._parse_decl(stop))
                break
            if tok.kind == "kw" and tok.text in self._STATEMENTS:
                self.next()
                stmts.append(self._STATEMENTS[tok.text](self))
            else:
                stmts.append(self._parse_update())
        if len(stmts) == 1:
            return stmts[0]
        return Block(tuple(stmts))

    def _parse_decl(self, stop: frozenset[str]) -> syntax.Rule:
        names = self._names()
        if not (self.accept("kw", "ranges") or self.accept("kw", "range")):
            raise self.fail("expected 'ranges over'")
        self.expect("kw", "over")
        universe = self.check_universe(self.expect_ident())
        self.scope.extend(names)
        body = self.parse_rule(stop)
        del self.scope[len(self.scope) - len(names):]
        for name in reversed(names):
            body = Decl(name, UniverseRange(universe), body)
        return body

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
        clauses = []
        while not clauses or self.accept("kw", "elseif"):
            guard = self.parse_guard()
            self.expect("kw", "then")
            clauses.append((guard, self.parse_rule(frozenset({"elseif", "else", "endif"}))))
        if self.accept("kw", "else"):
            clauses.append((syntax.TRUE_GUARD, self.parse_rule(frozenset({"endif"}))))
        self.expect("kw", "endif")
        return Cond(tuple(clauses))

    def _parse_import(self) -> syntax.Rule:
        names = self._names()
        return Import(tuple(names), self._scoped(names, "endimport"))

    def _parse_extend(self) -> syntax.Rule:
        universe_tok = self.expect_ident()
        universe = self.check_universe(universe_tok)
        fn = self.vocab.require(universe)
        if fn.is_static or fn.is_logic:
            raise self.fail(f"{universe}: cannot extend a static universe", universe_tok)
        self.expect("kw", "with")
        names = self._names()
        return Extend(universe, tuple(names), self._scoped(names, "endextend"))

    def _parse_choose(self) -> syntax.Rule:
        names = self._names()
        self.expect("kw", "in")
        universe = self.check_universe(self.expect_ident())
        qualifier = None
        if tok := self.accept("kw", "satisfying"):
            self.scope.extend(names)
            qualifier = self.parse_term()
            del self.scope[len(self.scope) - len(names):]
            if not is_boolean_term(qualifier, self.vocab, active=self.active):
                raise self.fail("satisfying needs a Boolean term", tok)
        return Choose(tuple(names), universe, qualifier, self._scoped(names, "endchoose"))

    def _parse_let(self) -> syntax.Rule:
        name = self.expect_ident().text
        self.expect("op", "=")
        term = self.parse_term()
        self.expect("kw", "in")
        return Decl(name, TermRange(term), self._scoped([name], "endlet"))

    def _parse_duplicate(self) -> syntax.Rule:
        term = self.parse_term()
        self.expect("kw", "as")
        name = self.expect_ident().text
        return Duplicate(term, name, self._scoped([name], "endduplicate"))

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
        subject = self.parse_term()
        self.expect("kw", "of")
        branches = []
        else_rule = None
        stop = frozenset({"endcase", "else"})
        self.skip_newlines()
        while not self.at_kw("endcase", "else"):
            labels = self._list(self.parse_term)
            self.expect("op", ":")
            branches.append((tuple(labels), self.parse_rule(stop, case=True)))
        if self.accept("kw", "else"):
            else_rule = self.parse_rule(stop, case=True)
        self.expect("kw", "endcase")
        if not branches:
            raise self.fail("case needs at least one branch")
        return Case(subject, tuple(branches), else_rule)

    # The statement each keyword opens, parsed past the keyword.
    _STATEMENTS = {
        "skip": lambda self: syntax.SKIP,
        "if": _parse_cond,
        "import": _parse_import,
        "extend": _parse_extend,
        "choose": _parse_choose,
        "let": _parse_let,
        "case": _parse_case,
        "duplicate": _parse_duplicate,
    }


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


class _Header:
    """What the header lines read so far declare: names, external names,
    constants, aliases and the pragmas."""

    integers, modulus, active = False, None, False

    def __init__(self):
        self.declared, self.externals, self.constants, self.aliases = [], set(), [], {}

    def vocabulary(
        self, declared: list[FunctionName], with_reserve: bool, with_self: bool = False
    ) -> Vocabulary:
        """A vocabulary of ``declared`` under this header's integer pragma."""
        return make_vocabulary(
            declared, with_reserve=with_reserve, with_self=with_self,
            integers=self.integers, modulus=self.modulus,
        )


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


def _read(text: str, parse, vocabulary: Vocabulary, first_line: int = 1, **options):
    """``parse`` run by a rule parser over the whole of ``text``."""
    return _RuleParser(_scan(text, first_line), vocabulary, **options).parse_whole(parse)


def _parse_rule_section(
    text: str,
    first_line: int,
    header: _Header,
    *,
    allow_self: bool,
) -> syntax.Rule:
    active = [FunctionName("Active", 1, is_relation=True)] if header.active else []
    vocabulary = header.vocabulary(header.declared + active, with_reserve=True, with_self=True)
    rule = _read(text, _RuleParser.parse_rule, vocabulary, first_line,
                 aliases=header.aliases, allow_self=allow_self, active=header.active)
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
    header = _Header()
    lines = text.splitlines()
    body_start = None
    modules: list[tuple[str, int]] = []  # (name, first body line index)
    for lineno, line in text_lines(text):
        name = _module_name(line, lineno)
        if name:
            modules.append((name, lineno))
        elif modules:  # rule text of a module section
            continue
        elif line == "program:":
            body_start = lineno
            break
        else:
            _parse_header_line(line, lineno, header)
    if body_start is None and not modules:
        raise ParseError("missing `program:` or `module Name:` section")

    if body_start is not None:
        rule_text = "\n".join(lines[body_start:])
        rule = _parse_rule_section(rule_text, body_start + 1, header, allow_self=False)
        return Program(
            vocabulary=header.vocabulary(header.declared, with_reserve=syntax.has_import(rule)),
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

    shared = header.vocabulary(header.declared, with_reserve=any_import)
    all_constants = tuple(dict.fromkeys(header.constants))
    module_programs = []
    for name, rule in programs:
        used = fun_of(syntax.desugar(rule, active=header.active))
        local_decl = [fn for fn in header.declared if fn.name in used]
        module_programs.append((name, Program(
            vocabulary=header.vocabulary(local_decl, syntax.has_import(rule), with_self=True),
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
    require(vocabulary, Vocabulary, "parse_rule_text")
    return _read(require_text(text, "parse_rule_text"), _RuleParser.parse_rule, vocabulary,
                 scope=scope)


def parse_guard_text(text: str, vocabulary: Vocabulary) -> syntax.Guard:
    require(vocabulary, Vocabulary, "parse_guard_text")
    return _read(require_text(text, "parse_guard_text"), _RuleParser.parse_guard, vocabulary)


def parse_term_text(text: str, vocabulary: Vocabulary) -> syntax.Term:
    require(vocabulary, Vocabulary, "parse_term_text")
    return _read(require_text(text, "parse_term_text"), _RuleParser.parse_term, vocabulary)


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
    require(program, Program, "format_program")
    lines = _format_header(program.vocabulary, program.externals, program.constants)
    if program.active_sugar:
        lines.append("pragma active")
    lines.append("program:")
    lines.append(syntax.format_rule(program.rule, indent=1))
    return "\n".join(lines) + "\n"
