"""Function-name signatures and vocabularies.

A vocabulary is a finite collection of function names, each with a fixed
arity and optional relation/static markings.  The basic logic names
(true, false, undef, equality and the Boolean operations) belong to every
vocabulary and are injected automatically; Reserve and Self are injected
only for programs that import fresh elements or run as distributed
modules.  An optional integer background (numeric literals, +, mod, <)
can be switched on per program, with an optional wrap-around modulus for
ring-shaped scenarios.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable

from . import syntax
from .errors import DeclarationError, require, require_int


#: The one spelling of identifiers and of integer literals (ASCII digits
#: only), in programs, state files, certificates and oracle scripts.
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*")
INTEGER = re.compile(r"[0-9]+")


def is_numeral(name: str) -> bool:
    """Whether ``name`` is an integer literal, a name under ``pragma integers``."""
    return INTEGER.fullmatch(name) is not None


class FunctionName(syntax.Value):
    name: str
    arity: int
    is_relation: bool = False
    is_static: bool = False
    is_logic: bool = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if require_int(self.arity, "FunctionName") < 0:
            raise DeclarationError(f"{self.name}: arity must be nonnegative")


EQUALITY = FunctionName("=", 2, is_relation=True, is_static=True, is_logic=True)

#: Logic names present in every vocabulary.
BASIC_LOGIC_NAMES = (
    EQUALITY,
    FunctionName("true", 0, is_relation=True, is_static=True, is_logic=True),
    FunctionName("false", 0, is_relation=True, is_static=True, is_logic=True),
    FunctionName("undef", 0, is_relation=False, is_static=True, is_logic=True),
    FunctionName("and", 2, is_relation=True, is_static=True, is_logic=True),
    FunctionName("or", 2, is_relation=True, is_static=True, is_logic=True),
    FunctionName("not", 1, is_relation=True, is_static=True, is_logic=True),
    FunctionName("implies", 2, is_relation=True, is_static=True, is_logic=True),
)

#: Reserve is a logic name but not static: import withdraws elements from it.
RESERVE = FunctionName("Reserve", 1, is_relation=True, is_static=False, is_logic=True)

#: Self is a logic name, never the subject of an update instruction.
SELF = FunctionName("Self", 0, is_relation=False, is_static=False, is_logic=True)

#: Background integer operations, available under ``pragma integers``.
INTEGER_NAMES = (
    FunctionName("+", 2, is_relation=False, is_static=True, is_logic=True),
    FunctionName("mod", 2, is_relation=False, is_static=True, is_logic=True),
    FunctionName("<", 2, is_relation=True, is_static=True, is_logic=True),
)

#: Names whose value is computed, never stored in a state table.
COMPUTED_NAMES = frozenset(
    fn.name for fn in BASIC_LOGIC_NAMES + INTEGER_NAMES if fn.arity > 0
) | {"true", "false", "undef"}


class Vocabulary(syntax.Value):
    """An immutable name table, safe to share across concurrent evaluations."""

    names: tuple[FunctionName, ...]
    integers: bool = False
    modulus: int | None = None

    @cached_property
    def _index(self) -> dict[str, FunctionName]:
        return {fn.name: fn for fn in self.names}

    @cached_property
    def resolved(self) -> dict:
        """How each (name, arity) reads here, filled by ``state.resolve``,
        and under (name, arity, mirror) the name an allowed update writes,
        filled by ``state._writable``."""
        return {}

    @cached_property
    def name_set(self) -> frozenset[str]:
        """The declared names, numeric literals aside."""
        return frozenset(self._index)

    def lookup(self, name: str) -> FunctionName | None:
        fn = self._index.get(name)
        if fn is None and self.integers and is_numeral(name):
            # Numeric literals act as static nullary logic-style names.
            return FunctionName(name, 0, is_relation=False, is_static=True, is_logic=True)
        return fn

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def require(self, name: str) -> FunctionName:
        fn = self.lookup(name)
        if fn is None:
            raise DeclarationError(f"unknown function name: {name}")
        return fn

    def is_universe_name(self, name: str) -> bool:
        """Unary relation usable as a quantifier or binder range (never Reserve)."""
        fn = self.lookup(name)
        return fn is not None and fn.is_relation and fn.arity == 1 and name != "Reserve"

    def user_names(self) -> list[FunctionName]:
        return [fn for fn in self.names if not fn.is_logic]


def make_vocabulary(
    user_names: Iterable[FunctionName] = (),
    *,
    with_reserve: bool = False,
    with_self: bool = False,
    integers: bool = False,
    modulus: int | None = None,
) -> Vocabulary:
    """Build a vocabulary from user declarations plus the forced logic names.

    Redeclaring a logic name with a conflicting signature, declaring the
    same identifier twice with different arity/flags, or a modulus below 1
    or without ``integers``, is a declaration error.
    """
    if modulus is not None:
        require_int(modulus, "make_vocabulary")
        if not integers:
            raise DeclarationError("a modulus needs integers")
        if modulus < 1:
            raise DeclarationError("modulus must be positive")
    table: dict[str, FunctionName] = {fn.name: fn for fn in BASIC_LOGIC_NAMES}
    if with_reserve:
        table[RESERVE.name] = RESERVE
    if with_self:
        table[SELF.name] = SELF
    if integers:
        for fn in INTEGER_NAMES:
            table[fn.name] = fn
    for fn in user_names:
        old = table.get(require(fn, FunctionName, "make_vocabulary").name)
        if old is not None and old != fn:
            raise DeclarationError(
                f"{fn.name}: declaration conflicts with existing signature "
                f"({old.arity}-ary{', relation' if old.is_relation else ''})"
            )
        if integers and is_numeral(fn.name):
            raise DeclarationError(f"{fn.name}: numeric literals cannot be redeclared")
        table[fn.name] = fn
    return Vocabulary(
        tuple(sorted(table.values(), key=lambda f: f.name)),
        integers=integers,
        modulus=modulus,
    )


def fun_of(obj) -> set[str]:
    """The set of function names occurring in a term, guard, rule or program.

    Variables are excluded; names bound by the object itself (universe names
    of binders, update subjects, Boolean connectives in guard position) are
    included, matching a plain syntactic scan.
    """
    if isinstance(obj, syntax.Program):
        return fun_of(obj.rule)
    if isinstance(obj, syntax.DistributedSpec):
        return set().union(*(fun_of(prog.rule) for prog in obj.modules.values()))
    return {
        getattr(node, attr)
        for node in syntax.nodes(obj)
        for attr in ("fname", "op", "universe")
        if hasattr(node, attr)
    }
