"""Reading and writing initial-state files.

One fact per line, ``fname(arg1,...,argk) = value``; nullary names drop
the parentheses.  Arguments and values are element literals: bare
identifiers denote named elements, digit strings denote integers,
``true``/``false``/``undef`` the logic constants, and ``@n`` an element
drawn from the reserve (serial ``n``).  Lines starting with ``#`` are
comments; omitted locations keep their default value.  A ``reserve: n``
directive sets the first unallocated reserve serial explicitly; without
it the state takes one past the largest serial in its facts.

The ``name(args) = value`` shape is split here for every reader of fact
lines: state files, the update entries of certificates (``:=``) and
oracle scripts.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .state import Element, Location, State, format_element
from .vocabulary import Vocabulary

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*")
_FACT_RES = {
    sep: re.compile(
        r"(?P<name>[A-Za-z_+<=][A-Za-z0-9_']*)\s*(?:\((?P<args>[^()]*)\))?"
        rf"\s*{re.escape(sep)}\s*(?P<value>\S+)"
    )
    for sep in ("=", ":=")
}
_LOGIC_LITERALS = {"true", "false", "undef"}


def split_fact(line: str, sep: str = "=") -> tuple[str, tuple[str, ...], str] | None:
    """Split ``name[(a1, ..., ak)] <sep> value`` into the name, the argument
    literals and the value literal; None for a line of another shape.

    ``sep`` is ``=`` (state files, oracle scripts) or ``:=`` (certificate
    update entries).  Only the shape is checked: the literals are not
    parsed, and the name may be an operator (``+``, ``<``, ``=``), which
    :func:`is_name` tells apart.
    """
    m = _FACT_RES[sep].fullmatch(line)
    if m is None:
        return None
    raw_args = m.group("args")
    args = tuple(raw_args.split(",")) if raw_args and raw_args.strip() else ()
    return m.group("name"), args, m.group("value")


def is_name(name: str) -> bool:
    """An identifier, the form of every declared function name."""
    return _NAME_RE.fullmatch(name) is not None


def parse_element(token: str, vocabulary: Vocabulary | None = None) -> Element:
    token = token.strip()
    if not token:
        raise ParseError("empty element literal")
    if token in _LOGIC_LITERALS:
        return Element("logic", token)
    if token.startswith("@"):
        serial = token[1:]
        if not serial.isdigit():
            raise ParseError(f"bad reserve literal: {token}")
        return Element.reserve(int(serial))
    if token.isdigit() or (token[0] == "-" and token[1:].isdigit()):
        value = int(token)
        if vocabulary is not None and vocabulary.modulus:
            value %= vocabulary.modulus
        return Element.integer(value)
    if is_name(token):
        return Element.named(token)
    raise ParseError(f"bad element literal: {token}")


def parse_state(
    text: str,
    vocabulary: Vocabulary,
    *,
    constants: tuple[str, ...] = (),
) -> State:
    """Build a state from fact lines, seeding declared constants first.

    Each constant (and distributed module name) is interpreted as the named
    element spelled like it, unless the file overrides the fact.  A
    ``reserve:`` directive below a serial the facts mention breaks the
    reserve proviso, which ``State`` refuses (``StateValidityError``).
    """
    tables: dict[str, dict[tuple[Element, ...], Element]] = {}
    for name in constants:
        vocabulary.require(name)
        tables.setdefault(name, {})[()] = Element.named(name)

    # A state block repeats a few names and literals: each is looked up or
    # parsed once per call.
    names: dict = {}
    elements: dict[str, Element] = {}

    def element(token: str) -> Element:
        found = elements[token] = parse_element(token, vocabulary)
        return found

    reserve_next = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("reserve:"):
            value = line.split(":", 1)[1].strip()
            if not value.isdigit():
                raise ParseError("reserve: expects a nonnegative integer", lineno, 1)
            reserve_next = int(value)
            continue
        fact = split_fact(line)
        if fact is None:
            raise ParseError(f"not a fact line: {line!r}", lineno, 1)
        fname, raw_args, raw_value = fact
        fn = names.get(fname)
        if fn is None:
            fn = names[fname] = vocabulary.lookup(fname)
            if fn is None:
                raise ParseError(f"unknown function name: {fname}", lineno, 1)
        args = tuple([elements.get(p) or element(p) for p in raw_args])
        if len(args) != fn.arity:
            raise ParseError(
                f"{fname}: expected {fn.arity} arguments, got {len(args)}", lineno, 1
            )
        tables.setdefault(fname, {})[args] = elements.get(raw_value) or element(raw_value)
    return State(vocabulary, tables, reserve_next)


def load_state(path, vocabulary: Vocabulary, *, constants: tuple[str, ...] = ()) -> State:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_state(fh.read(), vocabulary, constants=constants)


def format_state(state: State) -> str:
    """Canonical fact-per-line rendering (inverse of :func:`parse_state`)."""
    lines = []
    if state.reserve_next:
        lines.append(f"reserve: {state.reserve_next}")
    for fname, args, value in state.stored_items():
        lines.append(f"{Location(fname, args)!r} = {format_element(value)}")
    return "\n".join(lines) + ("\n" if lines else "")
