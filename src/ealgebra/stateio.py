"""The one grammar of element literals and fact lines, and state files.

An element literal is ``true``, ``false`` or ``undef``, an integer
``-?[0-9]+``, ``@n`` for the reserve element of serial ``n`` (``[0-9]+``),
or an identifier (``vocabulary.IDENTIFIER``) for the named element spelled
like it; digits are ASCII only.  :func:`fact_reader` reads the fact lines
``name[(a1, ..., ak)] <sep> value`` of state files and sigma blocks
(``=``), certificate ``updates`` entries (``:=``, behind an optional
``~``) and oracle scripts (``step N: `` then ``=``); each caller checks the
name and takes one line per location at most.

A state file holds one fact a line, read by :func:`text_lines`; omitted
locations keep their default value, and a line may override a seeded
constant.  ``reserve: n`` sets the first unallocated reserve serial;
without it the state takes one past the largest serial in its facts.

Records traces write an element as a tag then a payload (``ELEMENT_TAGS``:
``l:true``, ``n:p0``, ``i:-3``, ``r:2``).  A logic, integer or reserve
payload obeys its kind's literal rule (``r:2`` reads as ``@2``); a named
payload is any string, since records escape it.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .errors import ParseError, require, require_text
from .state import Element, Location, State, format_element
from .vocabulary import IDENTIFIER, INTEGER, Vocabulary

# One group per element kind: a match's ``lastgroup`` is its kind.
_LITERAL_RE = re.compile(
    rf"(?P<logic>true|false|undef)|@(?P<reserve>{INTEGER.pattern})"
    rf"|(?P<int>-?{INTEGER.pattern})|(?P<named>{IDENTIFIER.pattern})"
)
# The name may be an operator (``+``, ``<``, ``=``) or hold primes
# anywhere: the callers tell those apart.
_FACT_RE = re.compile(
    r"(?P<name>[A-Za-z_+<=][A-Za-z0-9_']*)\s*(?:\((?P<args>[^()]*)\))?"
    r"\s*(?P<sep>:?=)\s*(?P<value>\S+)"
)

#: The records tag of each element kind.
ELEMENT_TAGS = {"logic": "l:", "named": "n:", "int": "i:", "reserve": "r:"}
_TAG_KINDS = {tag: kind for kind, tag in ELEMENT_TAGS.items()}


def text_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of ``text`` that holds more
    than blanks and a ``#`` comment, with those stripped: the line rule of
    state files, sigma blocks, certificates, oracle scripts and program
    headers."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


def _literal(token: str, modulus: int | None = None) -> Element | None:
    """The element a literal denotes, integers taken mod ``modulus``;
    None for a token that is no literal."""
    m = _LITERAL_RE.fullmatch(token)
    if m is None:
        return None
    kind = m.lastgroup
    if kind == "logic" or kind == "named":
        return Element(kind, m[kind])
    value = int(m[kind])
    return Element(kind, value % modulus if modulus and kind == "int" else value)


def _parse_literal(token: str, modulus: int | None) -> Element:
    token = token.strip()
    found = _literal(token, modulus)
    if found is None:
        if not token:
            raise ParseError("empty element literal")
        raise ParseError(f"bad {'reserve' if token[0] == '@' else 'element'} literal: {token}")
    return found


def parse_element(token: str, vocabulary: Vocabulary | None = None) -> Element:
    require_text(token, "parse_element")
    if vocabulary is not None:
        require(vocabulary, Vocabulary, "parse_element")
    return _parse_literal(token, vocabulary and vocabulary.modulus)


def decode_element(text: str) -> Element:
    """The element a records trace writes as ``text``; ``ParseError`` for
    a tag or payload no element has."""
    tag, colon, payload = text.partition(":")
    kind = _TAG_KINDS.get(tag + colon)
    if kind == "named":
        return Element.named(payload)
    found = kind and _literal("@" + payload if kind == "reserve" else payload)
    if not found or found.kind != kind:
        raise ParseError(f"bad element encoding: {text}")
    return found


def fact_reader(sep: str, vocabulary: Vocabulary | None = None):
    """A reader of ``name[(a1, ..., ak)] <sep> value`` lines.

    It returns the name, the argument elements and the value element of a
    line, or None for a line of another shape; a bad literal is a
    ``ParseError``.  Integers are taken mod the vocabulary's modulus, and
    each literal is parsed once for the reader's life, since a block of
    facts repeats a few.
    """
    modulus = vocabulary and vocabulary.modulus
    elements: dict[str, Element] = {}

    def element(token: str) -> Element:
        found = elements[token] = _parse_literal(token, modulus)
        return found

    def read(line: str) -> tuple[str, tuple[Element, ...], Element] | None:
        m = _FACT_RE.fullmatch(line)
        if m is None:
            return None
        name, raw_args, found_sep, raw = m.groups()
        if found_sep != sep:
            return None
        if raw_args and not raw_args.isspace():
            args = tuple([elements.get(a) or element(a) for a in raw_args.split(",")])
        else:
            args = ()
        return name, args, elements.get(raw) or element(raw)

    return read


def parse_state(text: str, vocabulary: Vocabulary, *, constants: tuple[str, ...] = ()) -> State:
    """Build a state from fact lines, one per location at most.

    Each constant (and distributed module name) is interpreted as the named
    element spelled like it, unless a line gives its value.  At most one
    ``reserve:`` line sets ``reserve_next``; a value below a serial the
    facts mention breaks the reserve proviso, which ``State`` refuses
    (``StateValidityError``).
    """
    require_text(text, "parse_state")
    require(vocabulary, Vocabulary, "parse_state")
    return _read_state(text_lines(text), vocabulary, constants)


def _read_state(lines: Iterable[tuple[int, str]], vocabulary: Vocabulary,
                constants: tuple[str, ...]) -> State:
    """``parse_state`` over :func:`text_lines` pairs, so that an error
    names the line of the file the pairs come from."""
    for name in constants:
        vocabulary.require(name)
    tables: dict[str, dict[tuple[Element, ...], Element]] = {name: {} for name in constants}
    names: dict = {}  # each name is looked up once per call
    read = fact_reader("=", vocabulary)
    reserve_next = None
    for lineno, line in lines:
        if line.startswith("reserve:"):
            value = line.split(":", 1)[1].strip()
            if reserve_next is not None:
                raise ParseError("second reserve: line", lineno, 1)
            if not INTEGER.fullmatch(value):
                raise ParseError("reserve: expects a nonnegative integer", lineno, 1)
            reserve_next = int(value)
            continue
        fact = read(line)
        if fact is None:
            raise ParseError(f"not a fact line: {line!r}", lineno, 1)
        fname, args, value = fact
        fn = names.get(fname)
        if fn is None:
            fn = names[fname] = vocabulary.lookup(fname)
            if fn is None:
                raise ParseError(f"unknown function name: {fname}", lineno, 1)
        if len(args) != fn.arity:
            raise ParseError(f"{fname}: expected {fn.arity} arguments, got {len(args)}", lineno, 1)
        table = tables.setdefault(fname, {})
        if args in table:
            where, written = repr(Location(fname, args)), line.partition("=")[0]
            if vocabulary.modulus and "".join(written.split()) != where.replace(" ", ""):
                where += f" (written {line}, integers mod {vocabulary.modulus})"
            raise ParseError(f"second line for {where}", lineno, 1)
        table[args] = value
    for name in constants:  # unless a line gave its value
        tables[name].setdefault((), Element.named(name))
    return State(vocabulary, tables, reserve_next)


def load_state(path, vocabulary: Vocabulary, *, constants: tuple[str, ...] = ()) -> State:
    require(vocabulary, Vocabulary, "load_state")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_state(fh.read(), vocabulary, constants=constants)


def format_state(state: State) -> str:
    """Canonical fact-per-line rendering (inverse of :func:`parse_state`)."""
    require(state, State, "format_state")
    lines = []
    if state.reserve_next:
        lines.append(f"reserve: {state.reserve_next}")
    for fname, args, value in state.stored_items():
        lines.append(f"{Location(fname, args)!r} = {format_element(value)}")
    return "\n".join(lines) + ("\n" if lines else "")
