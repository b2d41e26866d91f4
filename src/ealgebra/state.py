"""States, locations, updates and their firing.

A state interprets every function name of its vocabulary over a shared
superuniverse.  Only locations holding non-default values are stored:
absent relational locations read as false, every other absent location
reads as undef.  The reserve is a lazily allocated pool of serial-tagged
elements; all relations are false and all functions undef on elements
still in the reserve, and no stored value may point into it: a state is
checked for this reserve proviso when it is built, and firing keeps it
(:meth:`State.audit_proviso` checks it again).

States are immutable values: no firing changes a state (firing the empty
set returns it), so sharing states across explorations is safe.  Tables are
shared between a state and the states fired from it.  A table of at most
``LEAF_SIZE`` facts is one plain dict, which a firing that writes it
copies whole.  A larger table is a persistent hash trie (:class:`_Trie`):
a firing copies only the nodes on each written key's path and the leaf
at its end, and the child shares every other node with its parent.
Equality, hashes, fact sets and canonical keys depend on the facts only,
never on a trie's shape, and every output sorts its facts.

Reachability counts states up to renaming of reserve-origin elements.
:meth:`State.canonical_key` gives an exact key for that equivalence by
individualisation-refinement (see :func:`_canonical_form`): colour the
reserve elements by the facts they occur in, refine by the colours of
their neighbours until stable, and individualise only on ties, pruned by
known automorphisms.  It has no limit on the number of reserve elements,
and its value depends neither on iteration order nor on the hash seed.
A state none of whose facts mentions a reserve element is keyed by its
cached fact set; firing a state whose fact set is cached derives the
successor's set from it and the facts that changed.  The derivation
copies the set, so firing a keyed state costs O(facts), done in C; runs
that ask no key pay nothing.
"""

from __future__ import annotations

import sys
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from .errors import (
    ContractViolation,
    IllegalUpdateError,
    StateValidityError,
    UpdateTypeError,
    VocabularyError,
)
from .vocabulary import COMPUTED_NAMES, FunctionName, Vocabulary, is_numeral

_LOGIC_RANK = {"true": 0, "false": 1, "undef": 2}
_KIND_RANK = {"logic": 0, "named": 1, "int": 2, "reserve": 3}


class Element(NamedTuple):
    """A member of the superuniverse, compared by tag and payload."""

    kind: str  # "logic" | "named" | "int" | "reserve"
    value: object

    @staticmethod
    def named(name: str) -> "Element":
        return Element("named", name)

    @staticmethod
    def integer(value: int) -> "Element":
        return Element("int", value)

    @staticmethod
    def reserve(serial: int) -> "Element":
        return Element("reserve", serial)

    def sort_key(self):
        kind, value = self
        if kind == "logic":
            return (0, _LOGIC_RANK[value], "")
        if kind == "named":
            return (1, 0, value)
        return (_KIND_RANK[kind], value, "")

    def __repr__(self):
        return f"<{format_element(self)}>"


TRUE = Element("logic", "true")
FALSE = Element("logic", "false")
UNDEF = Element("logic", "undef")

_BOOLEANS = (TRUE, FALSE)


def boolean(flag: bool) -> Element:
    return TRUE if flag else FALSE


def format_element(e: Element) -> str:
    return f"@{e.value}" if e.kind == "reserve" else str(e.value)


class Location(NamedTuple):
    fname: str
    args: tuple[Element, ...] = ()

    def __repr__(self):
        if not self.args:
            return self.fname
        return f"{self.fname}({', '.join(format_element(a) for a in self.args)})"


class Update(NamedTuple):
    location: Location
    value: Element

    def __repr__(self):
        return f"{self.location!r} := {format_element(self.value)}"


class StaticMirror(Update):
    """Duplication's mirroring of a static table entry.

    The only update kind allowed to target a static name: duplication must
    redefine every basic function so original and copy become
    indistinguishable as arguments, and that includes static background
    tables.  Printed with a leading ``~``, as certificates record it.
    Unequal to, and hashed apart from, the plain update it mirrors.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is StaticMirror and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(("~", *self))

    def __repr__(self):
        return f"~{super().__repr__()}"


def _flat_key(key: list, elements) -> list:
    """``key`` extended by two items per element, which compare as the
    elements' ``sort_key``s do."""
    for kind, value in elements:
        key += (_KIND_RANK[kind], _LOGIC_RANK[value] if kind == "logic" else value)
    return key


def _update_key(u: Update) -> list:
    """Orders updates by location (name, then arguments), then value, then
    a plain update before its ``StaticMirror`` twin; the -1 ends the
    arguments, so a location with fewer sorts first."""
    (fname, args), (kind, value) = u
    key = _flat_key([fname], args)
    key += (
        -1, _KIND_RANK[kind], _LOGIC_RANK[value] if kind == "logic" else value,
        type(u) is StaticMirror,
    )
    return key


class UpdateSet(frozenset):
    """A set of updates.  ``|``, ``&`` and ``-`` give plain frozensets."""

    __slots__ = ()

    def locations(self) -> frozenset[Location]:
        return frozenset(u.location for u in self)

    def conflicts(self) -> dict[Location, frozenset[Element]]:
        """Locations with more than one candidate value."""
        seen: dict[Location, set[Element]] = {}
        for u in self:
            seen.setdefault(u.location, set()).add(u.value)
        return {loc: frozenset(vals) for loc, vals in seen.items() if len(vals) > 1}

    def sorted_updates(self) -> list[Update]:
        """The updates in the order of ``_update_key``."""
        return sorted(self, key=_update_key)

    def __repr__(self):
        inner = ", ".join(repr(u) for u in self.sorted_updates())
        return "{" + inner + "}"


EMPTY_UPDATE_SET = UpdateSet()


class UpdateFamily(frozenset):
    """The alternative update sets of a rule, by direct induction
    (``evaluator.nupdates``).  The empty family means inconsistency (a
    choose had nothing to pick), and nothing fires."""

    __slots__ = ()

    def member_count(self) -> int:
        """``len(self)``, as perfbench's tracer reads it."""
        return len(self)

    def sorted_members(self) -> list[UpdateSet]:
        """The members in a deterministic order."""
        return sorted(self, key=lambda beta: sorted(map(_update_key, beta)))


def _is_default(fn: FunctionName, value: Element) -> bool:
    return value == (FALSE if fn.is_relation else UNDEF)


LEAF_SIZE = 32  # facts in a trie leaf; a table of no more is one plain dict
_HASH_BITS = sys.hash_info.width


class _Trie:
    """A table of more than ``LEAF_SIZE`` facts as a persistent hash trie
    (Bagwell, *Ideal Hash Trees*, 2001).

    An inner node is a 32-tuple indexed by five bits of the key's hash per
    level, lowest bits first.  A slot holds None, an inner node or a leaf:
    a dict of at most ``LEAF_SIZE`` facts, or more once keys agree on every
    hash bit.  No node changes once built, so tries share every node that
    an update does not rebuild.  The shape depends on the history of
    updates (removals never merge leaves), so equality compares facts.
    """

    __slots__ = ("root", "size")

    def __init__(self, root, size: int):
        self.root, self.size = root, size

    @staticmethod
    def of(items) -> "_Trie":
        items = list(items)
        return _Trie(_node(items, 0), len(items))

    def __len__(self):
        return self.size

    def copy(self) -> "_Trie":
        """The trie itself: it never changes, so it needs no copy."""
        return self

    def get(self, key, default=None):
        node, h = self.root, hash(key)
        while type(node) is tuple:
            node = node[h & 31]
            h >>= 5
        return default if node is None else node.get(key, default)

    def items(self):
        """The facts, in an order the keys' hashes set."""
        nodes = [self.root]
        while nodes:
            node = nodes.pop()
            if type(node) is tuple:
                nodes.extend(node)
            elif node is not None:
                yield from node.items()

    def __eq__(self, other):
        if type(other) is not _Trie or self.size != other.size:
            return False
        return dict(self.items()) == dict(other.items())

    def set(self, key, value) -> tuple["_Trie", object]:
        """This table with ``key`` bound to ``value`` (unbound when it is
        None), and the value it had.  Only the nodes on the key's path and
        its leaf are new."""
        h, path, node = hash(key), [], self.root
        while type(node) is tuple:
            path.append((node, h & 31))
            node = node[h & 31]
            h >>= 5
        old = None if node is None else node.get(key)
        if old == value:
            return self, old
        leaf = {} if node is None else node.copy()
        if value is None:
            del leaf[key]
        else:
            leaf[key] = value
        node = _node(list(leaf.items()), 5 * len(path)) if len(leaf) > LEAF_SIZE else leaf or None
        for parent, i in reversed(path):
            if node is not None or parent.count(None) < 31:
                node = (*parent[:i], node, *parent[i + 1:])
        size = self.size + (value is not None) - (old is not None)
        return _Trie(node, size), old


def _node(items: list, shift: int):
    """A trie node holding ``items``, facts whose keys' hashes agree on
    the bits below ``shift``."""
    if len(items) <= LEAF_SIZE or shift >= _HASH_BITS:
        return dict(items)
    slots: list[list] = [[] for _ in range(32)]
    for item in items:
        slots[hash(item[0]) >> shift & 31].append(item)
    return tuple(_node(slot, shift + 5) if slot else None for slot in slots)


class State:
    """A static algebra: vocabulary plus finite interpretation tables."""

    __slots__ = ("vocabulary", "_tables", "reserve_next", "__dict__")

    def __init__(
        self,
        vocabulary: Vocabulary,
        tables: Mapping[str, Mapping[tuple[Element, ...], Element]] | None = None,
        reserve_next: int | None = None,
    ):
        """``reserve_next`` is the first unallocated reserve serial; by
        default one past the largest serial in the tables, or 0.  A value
        at or below a serial there breaks the reserve proviso and raises
        ``StateValidityError``."""
        self.vocabulary = vocabulary
        normalized: dict[str, dict[tuple[Element, ...], Element]] = {}
        least = 0
        for fname, table in (tables or {}).items():
            fn = vocabulary.lookup(fname)
            if fn is None:
                raise VocabularyError(f"table for unknown function name: {fname}")
            # Known but not declared: a numeral under pragma integers.
            if fname in COMPUTED_NAMES or fname == "Reserve" or fname not in vocabulary.name_set:
                raise VocabularyError(f"{fname}: interpretation is fixed, not tabled")
            if not isinstance(table, Mapping):
                raise ContractViolation(
                    f"State takes a mapping for {fname}, not {type(table).__name__}"
                )
            inner = {}
            for args, value in table.items():
                if len(args) != fn.arity:
                    raise VocabularyError(
                        f"{fname}: expected {fn.arity} arguments, got {len(args)}"
                    )
                if fn.is_relation and value not in _BOOLEANS:
                    raise UpdateTypeError(f"{fname}: relational value must be Boolean")
                for e in (*args, value):
                    if not isinstance(e, Element):
                        raise ContractViolation(
                            f"State takes elements in the table of {fname}, not {type(e).__name__}"
                        )
                    if e.kind == "reserve":
                        least = max(least, e.value + 1)
                if not _is_default(fn, value):
                    inner[tuple(args)] = value
            if inner:
                normalized[fname] = _Trie.of(inner.items()) if len(inner) > LEAF_SIZE else inner
        if reserve_next is not None and reserve_next < least:
            raise StateValidityError(
                f"reserve: {reserve_next} conflicts with stored reserve element @{least - 1}"
            )
        self._tables = normalized
        self.reserve_next = least if reserve_next is None else reserve_next

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _raw(cls, vocabulary, tables, reserve_next) -> "State":
        obj = object.__new__(cls)
        obj.vocabulary = vocabulary
        obj._tables = tables
        obj.reserve_next = reserve_next
        return obj

    # -- reading ---------------------------------------------------------------

    def read(self, location: Location) -> Element:
        """Value at a location, computing logic names and applying defaults."""
        return resolve(self.vocabulary, location.fname, len(location.args)).read(
            self, location.args
        )

    def extent(self, universe: str) -> tuple[Element, ...]:
        """Elements of a unary relation's finite extent, canonically ordered."""
        if not self.vocabulary.is_universe_name(universe):
            raise VocabularyError(f"{universe}: not a universe (unary relation) name")
        table = self._tables.get(universe, {})
        members = [args[0] for args, val in table.items() if val == TRUE]
        members.sort(key=Element.sort_key)
        return tuple(members)

    def facts(self, fname: str | None = None):
        """Stored ``(name, args, value)`` facts, in no particular order;
        only those of ``fname`` when it is given."""
        if fname is not None:
            for args, value in self._tables.get(fname, {}).items():
                yield fname, args, value
            return
        for name, table in self._tables.items():
            for args, value in table.items():
                yield name, args, value

    def stored_items(self):
        """Stored facts in canonical order, for output."""
        for fname in sorted(self._tables):
            items = self._tables[fname].items()
            for args, value in sorted(items, key=lambda item: _flat_key([], item[0])):
                yield fname, args, value

    # -- firing ---------------------------------------------------------------

    def _apply(self, pairs: Iterable[tuple[Update, FunctionName]]) -> "State":
        tables = dict(self._tables)
        touched: set[str] = set()
        reserve_next = self.reserve_next
        known = self.__dict__.get("_fact_set")
        gone, new = [], []  # the facts replaced and written, kept once known
        for u, fn in pairs:
            name, args, value = fn.name, u.location.args, u.value
            if name == "Reserve":
                reserve_next = max(reserve_next, args[0].value + 1)
                continue
            if name not in touched:
                tables[name] = tables.get(name, {}).copy()
                touched.add(name)
            table = tables[name]
            if _is_default(fn, value):
                value = None
            if type(table) is not dict:
                tables[name], old = table.set(args, value)
            elif value is None:
                old = table.pop(args, None)
            else:
                old = table.get(args)
                table[args] = value
            if known is not None and old != value:
                if old is not None:
                    gone.append((name, args, old))
                if value is not None:
                    new.append((name, args, value))
        for name in touched:  # a table is one dict up to LEAF_SIZE facts
            table = tables[name]
            if not table:
                del tables[name]
            elif type(table) is dict:
                if len(table) > LEAF_SIZE:
                    tables[name] = _Trie.of(table.items())
            elif len(table) <= LEAF_SIZE:
                tables[name] = dict(table.items())
        child = State._raw(self.vocabulary, tables, reserve_next)
        if known is not None:
            child._fact_set = known.symmetric_difference(gone + new)
        return child

    def checked(self, beta: UpdateSet) -> Optional[list[tuple[Update, FunctionName]]]:
        """The members of ``beta`` with their names, as ``_apply`` fires
        them, or None when ``beta`` is inconsistent.  Raises as firing
        would; the result holds at every state of this vocabulary.  Only
        a set that writes some location twice can conflict.  Whether an
        update may write its target is decided once per vocabulary
        (``_writable``), its value at each update."""
        vocabulary, allowed, pairs = self.vocabulary, self.vocabulary.resolved, []
        for u in beta:
            (fname, args), value = u
            key = (fname, len(args), type(u) is StaticMirror)
            fn = allowed.get(key) or _writable(vocabulary, *key)
            if fname == "Reserve":
                # Import withdraws elements by updating Reserve to false;
                # nothing else may touch it.
                if value != FALSE or args[0].kind != "reserve":
                    raise IllegalUpdateError("Reserve can only be withdrawn from")
            elif fn.is_relation and value not in _BOOLEANS:
                raise UpdateTypeError(
                    f"{fname}: relational location needs a Boolean value, "
                    f"got {format_element(value)}"
                )
            pairs.append((u, fn))
        if len({u.location for u in beta}) < len(pairs) and beta.conflicts():
            return None
        return pairs

    def fire_update_set(self, beta: UpdateSet) -> tuple["State", bool]:
        """Fire all members at once; an empty or inconsistent set changes nothing."""
        pairs = self.checked(beta)
        return self._apply(pairs) if pairs else self, pairs is not None

    # -- equality, isomorphism, audit -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, State):
            return NotImplemented
        return (
            self.vocabulary == other.vocabulary
            and self.reserve_next == other.reserve_next
            and self._tables == other._tables
        )

    @cached_property
    def _fact_set(self) -> frozenset:
        return frozenset(self.facts())

    def __hash__(self):
        return hash((self._fact_set, self.reserve_next))

    def isomorphic(self, other: "State") -> bool:
        """True iff a bijection of reserve-origin elements, fixing every
        other element, maps this state's tables onto the other's.

        Decided exactly by comparing canonical keys.
        """
        if not isinstance(other, State):
            raise ContractViolation(f"isomorphism compares two states, not {type(other).__name__}")
        if self.vocabulary != other.vocabulary:
            raise VocabularyError("isomorphism requires a common vocabulary")
        return self.canonical_key() == other.canonical_key()

    def canonical_key(self):
        """Exact key identifying the stored facts up to reserve renaming.

        Two states over one vocabulary have equal keys iff they are
        :meth:`isomorphic`.  Without reserve elements the key is the fact
        set itself.  Otherwise it is the facts free of reserve elements,
        the names and other elements of the rest, and the rest's canonical
        form as tuples of ints (see :func:`_canonical_form`).
        The key is a plain value, independent of set and dict iteration
        order and of the hash seed; there is no limit on the number of
        reserve elements.

        Every state meets the reserve proviso, so it mentions a reserve
        element only once ``reserve_next`` is positive, and at 0 its facts
        are not scanned.
        """
        facts = self._fact_set
        return _canonical_form(facts) if self.reserve_next else facts

    def audit_proviso(self) -> list[str]:
        """Check the reserve proviso over all stored locations."""
        violations = []
        for fname, args, value in self.stored_items():
            for a in args:
                if a.kind == "reserve" and a.value >= self.reserve_next:
                    violations.append(
                        f"{fname}{tuple(format_element(x) for x in args)}: "
                        f"stored for reserve argument {format_element(a)}"
                    )
            if value.kind == "reserve" and value.value >= self.reserve_next:
                violations.append(
                    f"{fname}: outputs reserve element {format_element(value)}"
                )
        return violations

    def __repr__(self):
        facts = ", ".join(
            f"{Location(f, a)!r}={format_element(v)}" for f, a, v in self.stored_items()
        )
        return f"State({facts or 'all default'}; reserve@{self.reserve_next})"


# -- name resolution ---------------------------------------------------------


class Resolved(NamedTuple):
    """How a name applied to ``arity`` arguments reads at the states of one
    vocabulary.

    ``kind`` is ``constant`` (``value`` is the element), ``=``, ``bool``,
    ``int`` (``value`` is the modulus), ``reserve``, ``table`` (``value``
    is the default of an absent location) or ``error`` (``value`` is the
    ``VocabularyError`` message, raised on reading).  ``read(state, args)``
    gives the value at a state.
    """

    kind: str
    value: object
    read: Callable[["State", tuple], Element]


def resolve(vocabulary: Vocabulary, fname: str, arity: int) -> Resolved:
    """The one dispatch on a name's kind, shared by ``State.read``, the
    evaluator's compiler and the enumeration memo; made once per
    vocabulary, name and arity."""
    how = vocabulary.resolved.get((fname, arity))
    if how is None:
        how = vocabulary.resolved[fname, arity] = _resolve(vocabulary, fname, arity)
    return how


def _resolve(vocabulary: Vocabulary, fname: str, arity: int) -> Resolved:
    fn = vocabulary.lookup(fname)
    if fn is None:
        return _failing(f"unknown function name: {fname}")
    if arity != fn.arity:
        return _failing(f"{fname}: expected {fn.arity} arguments, got {arity}")
    if fname in _CONSTANTS:
        return _constant(_CONSTANTS[fname])
    if fname == "=":
        return Resolved("=", None, lambda state, args: boolean(args[0] == args[1]))
    if fname in ("and", "or", "not", "implies"):
        return Resolved("bool", None, lambda state, args: _bool_op(fname, args))
    modulus = vocabulary.modulus
    if fname in ("+", "mod", "<"):
        return Resolved("int", modulus, lambda state, args: _int_op(fname, args, modulus))
    if vocabulary.integers and is_numeral(fname):
        return _constant(_integer(int(fname), modulus))
    if fname == "Reserve":
        return Resolved("reserve", None, lambda state, args: boolean(
            args[0].kind == "reserve" and args[0].value >= state.reserve_next
        ))
    default = FALSE if fn.is_relation else UNDEF

    def read(state, args):
        table = state._tables.get(fname)
        return default if table is None else table.get(args, default)

    return Resolved("table", default, read)


def _writable(vocabulary: Vocabulary, fname: str, arity: int, mirror: bool) -> FunctionName:
    """The name an update of ``fname`` at ``arity`` arguments writes (a
    ``StaticMirror`` when ``mirror``), kept in ``resolve``'s table, where
    ``State.checked`` finds it; or the error firing raises, decided again
    each time: an unknown name or a wrong arity as ``resolve`` reads it,
    and a static or logic name other than ``Reserve`` (a mirror may write
    a static table, not a computed name or numeral)."""
    how = resolve(vocabulary, fname, arity)
    if how.kind == "error":
        raise VocabularyError(how.value)
    fn = vocabulary.lookup(fname)
    if fn.is_static and (not mirror or how.kind != "table"):
        raise IllegalUpdateError(f"{fname}: static names cannot be updated")
    if fn.is_logic and not fn.is_static and how.kind != "reserve":
        raise IllegalUpdateError(f"{fname}: logic names cannot be updated")
    vocabulary.resolved[fname, arity, mirror] = fn
    return fn


_CONSTANTS = {"true": TRUE, "false": FALSE, "undef": UNDEF}


def _constant(value: Element) -> Resolved:
    return Resolved("constant", value, lambda state, args: value)


def _failing(message: str) -> Resolved:
    def read(state, args):
        raise VocabularyError(message)

    return Resolved("error", message, read)


def _integer(value: int, modulus: int | None) -> Element:
    return Element.integer(value % modulus if modulus else value)


def _int_op(fname: str, args: tuple[Element, ...], modulus: int | None) -> Element:
    a, b = args
    if a.kind != "int" or b.kind != "int":
        return FALSE if fname == "<" else UNDEF
    if fname == "+":
        return _integer(a.value + b.value, modulus)
    if fname == "<":
        return boolean(a.value < b.value)
    if b.value == 0:
        return UNDEF
    return _integer(a.value % b.value, modulus)


def _bool_op(fname: str, args: tuple[Element, ...]) -> Element:
    """Boolean operations: usual on Booleans, undef on anything else."""
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


# -- canonical form ----------------------------------------------------------
#
# Individualisation-refinement as in nauty/Traces (McKay & Piperno 2014) and
# bliss (Junttila & Kaski 2007), where only reserve elements may be renamed.


def _canonical_form(facts) -> object:
    """The canonical key of ``facts`` up to reserve renaming.

    One pass splits off the facts free of reserve elements; without any
    others the key is the fact set.  Otherwise the k reserve elements the
    others mention are numbered 0..k-1 by serial, and their names and
    other elements k on in sorted order (``labels``), so each of them is
    a tuple of ints.  The key is the free facts, ``labels`` and the least
    relabelling of the tuples over the leaves of :func:`_search`.
    """
    moving, rows, wide, names, mentioned = [], [], [], set(), set()
    for fact in facts:
        fname, args, value = fact
        slots = value[0] == "reserve"
        for a in args:
            if a[0] == "reserve":
                slots += 1
        if not slots:
            continue
        moving.append(fact)
        rows.append((fname, *args, value))
        wide.append(slots > 1)
        names.add(fname)
        mentioned.update(args)
        mentioned.add(value)
    facts = frozenset(facts)  # the same set if it was one
    if not moving:
        return facts
    elements = sorted(mentioned)  # by kind first, and "reserve" is the last
    fixed = len(elements) - [e[0] for e in elements].count("reserve")
    labels = (*sorted(names), *elements[:fixed])
    code = dict(zip((*elements[fixed:], *labels), range(len(elements) + len(names))))
    rows = [tuple(map(code.__getitem__, row)) for row in rows]
    refine = _Refiner(rows, wide, len(elements) - fixed, len(code))
    return facts.difference(moving), labels, _search(refine)


def _search(refine: "_Refiner") -> tuple:
    """The least relabelled facts over the leaves of the search tree.

    The root colouring is refined until stable.  While some colour is
    shared, the first shared colour's cell is split: one branch per
    element, individualised and refined again.  Branches that a known
    automorphism maps onto an explored one are skipped: transpositions of
    twins from the start, and automorphisms found as two leaves with equal
    forms.  A cell of mutual twins is split in one branch.  Each leaf
    colouring is a bijection onto 0..k-1.  The tree depends on the facts
    alone, so isomorphic fact sets give the same leaf forms and the same
    least one.
    """
    colour = refine(refine.root)
    if len(set(colour)) == len(colour):
        return refine.form(colour)
    twin = refine.twins(colour)
    first = best = None  # (form, element of each label) of a leaf
    automorphisms: list[list[int]] = []
    frames = []  # (colour, individualised, untried cell members, explored)
    node = (colour, ())
    while node is not None:
        colour, prefix = node
        cell = _first_shared_cell(colour)
        while cell is not None and len({twin[x] for x in cell}) == 1:
            colour = refine(_split(colour, cell))
            cell = _first_shared_cell(colour)
        if cell is None:
            form = refine.form(colour)
            labelled = [0] * len(colour)
            for x, c in enumerate(colour):
                labelled[c] = x
            if first is None:
                first = best = (form, labelled)
            elif form == first[0] or form == best[0]:
                known = first if form == first[0] else best
                automorphisms.append([known[1][c] for c in colour])
            elif form < best[0]:
                best = (form, labelled)
        else:
            frames.append((colour, prefix, cell, []))
        node = None
        while frames and node is None:
            colour, prefix, untried, explored = frames[-1]
            if not untried:
                frames.pop()
                continue
            x = untried.pop(0)
            if explored and _in_orbit(x, explored, prefix, twin, automorphisms):
                continue
            explored.append(x)
            node = (refine(_split(colour, [x])), prefix + (x,))
    return best[0]


class _Refiner:
    """Colour refinement of the reserve elements 0..k-1 of facts coded as
    ints, their other codes k..n-1.  An element's colour is the start of
    its cell, and its signature the sorted list of the facts it occurs in,
    relabelled by the colouring with its own slot shown as -1.  Only
    ``wide`` facts, with more than one reserve slot, show other colours:
    the root colouring splits by all facts under one colour, and later
    rounds relabel the wide ones alone.
    """

    def __init__(self, rows: list[tuple[int, ...]], wide: list[bool], k: int, n: int):
        self.rows = rows
        self.tail = [*range(k, n), -1]  # the other codes show as themselves
        zero = ([0] * k + self.tail).__getitem__
        shapes: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
        self.marked = marked = [[] for _ in range(k)]
        self.occurs = occurs = [[] for _ in range(k)]  # the rows each element occurs in
        for row, many in zip(rows, wide):
            if not many:  # its one reserve element has the least code
                x = min(row)
                t = list(row)
                t[row.index(x)] = -1
                shapes[x].append(tuple(t))
                occurs[x].append(row)
                continue
            shape = tuple(map(zero, row))
            for p, x in enumerate(row):
                if x < k:
                    shapes[x].append((*shape[:p], -1, *shape[p + 1 :]))
                    occurs[x].append(row)
                    marked[x].append((*row[:p], -1, *row[p + 1 :]))
        self.root = [0] * k
        _cut(sorted(zip(map(sorted, shapes), range(k))), 0, self.root)

    def __call__(self, colour: list[int]) -> list[int]:
        """Split cells by signature, in place, until none splits."""
        marked, split = self.marked, True
        while split and len(set(colour)) < len(colour):
            cells: dict[int, list[int]] = {}
            for x, c in enumerate(colour):
                cells.setdefault(c, []).append(x)
            show = (colour + self.tail).__getitem__
            split = False
            for c, members in cells.items():
                if len(members) > 1:
                    sigs = [(sorted([tuple(map(show, t)) for t in marked[x]]), x) for x in members]
                    split |= _cut(sorted(sigs), c, colour)
        return colour

    def form(self, colour: list[int]) -> tuple:
        show = (colour + self.tail).__getitem__
        return tuple(sorted([tuple(map(show, row)) for row in self.rows]))

    def twins(self, colour: list[int]) -> list[int]:
        """The least twin of every element (itself if it has none).

        Twins are elements whose transposition maps the facts onto
        themselves.  They share a colour in every stable colouring, and
        twinship is an equivalence, so each element is compared with one
        member per class found so far in its colour.
        """
        k, present, occurs = len(colour), set(self.rows), self.occurs
        swap, twin = list(range(k + len(self.tail) - 1)), list(range(k))
        classes: dict[int, list[int]] = {}
        for x, c in enumerate(colour):
            reps = classes.setdefault(c, [])
            for r in reps:
                swap[r], swap[x] = x, r
                moved = [tuple(map(swap.__getitem__, row)) for row in occurs[r] + occurs[x]]
                swap[r], swap[x] = r, x
                if present.issuperset(moved):
                    twin[x] = r
                    break
            else:
                reps.append(x)
        return twin


def _cut(sigs: list, start: int, colour: list[int]) -> bool:
    """Colour the runs of equal signatures in ``sigs``, sorted pairs of a
    signature and an element, as cells from ``start`` on; whether there
    was more than one."""
    first, last = start, sigs[0][0]
    for at, (sig, x) in enumerate(sigs, start):
        if sig != last:
            start, last = at, sig
        colour[x] = start
    return start != first


def _split(colour: list[int], head: list[int]) -> list[int]:
    """Give the members of ``head``, in order, colours of their own at the
    end of their cell; the rest keep theirs."""
    c = colour[head[0]]
    colour = list(colour)
    for at, x in enumerate(head, c + colour.count(c) - len(head)):
        colour[x] = at
    return colour


def _first_shared_cell(colour: list[int]) -> Optional[list[int]]:
    starts = sorted(set(colour))  # a cell's colour is where it starts
    for c, end in zip(starts, [*starts[1:], len(colour)]):
        if end - c > 1:
            return [x for x, d in enumerate(colour) if d == c]
    return None


def _in_orbit(x: int, explored: list[int], prefix, twin, automorphisms) -> bool:
    """Whether some automorphism fixing ``prefix`` maps ``x`` into
    ``explored``, using twin transpositions and the automorphisms found."""
    parent = list(twin)

    def root(y: int) -> int:
        while parent[y] != y:
            y = parent[y]
        return y

    for g in automorphisms:
        if all(g[p] == p for p in prefix):
            for y, z in enumerate(g):
                ry, rz = root(y), root(z)
                if ry != rz:
                    parent[max(ry, rz)] = min(ry, rz)
    target = root(x)
    return any(root(y) == target for y in explored)
