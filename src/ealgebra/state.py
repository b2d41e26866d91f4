"""States, locations, updates and their firing.

A state interprets every function name of its vocabulary over a shared
superuniverse.  Only locations holding non-default values are stored:
absent relational locations read as false, every other absent location
reads as undef.  The reserve is a lazily allocated pool of serial-tagged
elements; all relations are false and all functions undef on elements
still in the reserve, and no stored value may point into it (audited by
:meth:`State.audit_proviso`).

States are immutable values: every firing operation returns a new state,
so sharing states across concurrent explorations is safe.

Reachability counts states up to renaming of reserve-origin elements.
:meth:`State.canonical_key` gives an exact key for that equivalence by
individualisation-refinement (see :func:`_canonical_form`): colour the
reserve elements by the facts they occur in, refine by the colours of
their neighbours until stable, and individualise only on ties, pruned by
known automorphisms.  It has no limit on the number of reserve elements,
and its value depends neither on iteration order nor on the hash seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import (
    IllegalUpdateError,
    UpdateTypeError,
    VocabularyError,
)
from .vocabulary import COMPUTED_NAMES, FunctionName, Vocabulary

_KIND_RANK = {"logic": 0, "named": 1, "int": 2, "reserve": 3}
_LOGIC_RANK = {"true": 0, "false": 1, "undef": 2}


@dataclass(frozen=True)
class Element:
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
        if self.kind == "logic":
            return (0, _LOGIC_RANK[self.value], "")
        if self.kind == "named":
            return (1, 0, self.value)
        if self.kind == "int":
            return (2, self.value, "")
        return (3, self.value, "")

    def __repr__(self):
        return f"<{format_element(self)}>"


TRUE = Element("logic", "true")
FALSE = Element("logic", "false")
UNDEF = Element("logic", "undef")

_BOOLEANS = (TRUE, FALSE)


def boolean(flag: bool) -> Element:
    return TRUE if flag else FALSE


def format_element(e: Element) -> str:
    if e.kind in ("logic", "named"):
        return str(e.value)
    if e.kind == "int":
        return str(e.value)
    return f"@{e.value}"


@dataclass(frozen=True)
class Location:
    fname: str
    args: tuple[Element, ...] = ()

    def sort_key(self):
        return (self.fname, tuple(a.sort_key() for a in self.args))

    def __repr__(self):
        if not self.args:
            return self.fname
        return f"{self.fname}({', '.join(format_element(a) for a in self.args)})"


@dataclass(frozen=True)
class Update:
    location: Location
    value: Element

    def sort_key(self):
        return (*self.location.sort_key(), self.value.sort_key())

    def __repr__(self):
        return f"{self.location!r} := {format_element(self.value)}"


@dataclass(frozen=True)
class StaticMirror(Update):
    """Duplication's mirroring of a static table entry.

    The only update kind allowed to target a static name: duplication must
    redefine every basic function so original and copy become
    indistinguishable as arguments, and that includes static background
    tables.
    """


@dataclass(frozen=True)
class UpdateSet:
    updates: frozenset[Update] = frozenset()

    @staticmethod
    def of(items: Iterable[Update]) -> "UpdateSet":
        return UpdateSet(frozenset(items))

    def __iter__(self):
        return iter(self.updates)

    def __len__(self):
        return len(self.updates)

    def __contains__(self, item):
        return item in self.updates

    def union(self, other: "UpdateSet") -> "UpdateSet":
        return UpdateSet(self.updates | other.updates)

    def locations(self) -> frozenset[Location]:
        return frozenset(u.location for u in self.updates)

    def values_at(self, location: Location) -> frozenset[Element]:
        return frozenset(u.value for u in self.updates if u.location == location)

    def conflicts(self) -> dict[Location, frozenset[Element]]:
        """Locations with more than one candidate value."""
        seen: dict[Location, set[Element]] = {}
        for u in self.updates:
            seen.setdefault(u.location, set()).add(u.value)
        return {loc: frozenset(vals) for loc, vals in seen.items() if len(vals) > 1}

    @property
    def is_consistent(self) -> bool:
        return not self.conflicts()

    def sorted_updates(self) -> list[Update]:
        return sorted(self.updates, key=Update.sort_key)

    def sort_key(self):
        return tuple(u.sort_key() for u in self.sorted_updates())

    def __repr__(self):
        inner = ", ".join(repr(u) for u in self.sorted_updates())
        return "{" + inner + "}"


EMPTY_UPDATE_SET = UpdateSet()


@dataclass(frozen=True)
class UpdateFamily:
    """Alternative update sets; the empty family means inconsistency.

    ``contains_bottom`` records that some resolution of the rule's choices
    was contradictory; such members fire as no-ops.
    """

    sets: frozenset[UpdateSet] = frozenset()
    contains_bottom: bool = False

    @staticmethod
    def of(items: Iterable[UpdateSet], contains_bottom: bool = False) -> "UpdateFamily":
        return UpdateFamily(frozenset(items), contains_bottom)

    @property
    def is_empty(self) -> bool:
        return not self.sets and not self.contains_bottom

    def member_count(self) -> int:
        return len(self.sets) + (1 if self.contains_bottom else 0)

    def sorted_members(self) -> list[Optional[UpdateSet]]:
        """Deterministic member order; a trailing None stands for bottom."""
        members: list[Optional[UpdateSet]] = sorted(self.sets, key=UpdateSet.sort_key)
        if self.contains_bottom:
            members.append(None)
        return members


def _is_default(fn: FunctionName, value: Element) -> bool:
    return value == (FALSE if fn.is_relation else UNDEF)


class State:
    """A static algebra: vocabulary plus finite interpretation tables."""

    __slots__ = ("vocabulary", "_tables", "reserve_next", "__dict__")

    def __init__(
        self,
        vocabulary: Vocabulary,
        tables: Mapping[str, Mapping[tuple[Element, ...], Element]] | None = None,
        reserve_next: int = 0,
    ):
        self.vocabulary = vocabulary
        normalized: dict[str, dict[tuple[Element, ...], Element]] = {}
        for fname, table in (tables or {}).items():
            fn = vocabulary.lookup(fname)
            if fn is None:
                raise VocabularyError(f"table for unknown function name: {fname}")
            if fname in COMPUTED_NAMES or fname == "Reserve":
                raise VocabularyError(f"{fname}: interpretation is fixed, not tabled")
            inner = {}
            for args, value in table.items():
                if len(args) != fn.arity:
                    raise VocabularyError(
                        f"{fname}: expected {fn.arity} arguments, got {len(args)}"
                    )
                if fn.is_relation and value not in _BOOLEANS:
                    raise UpdateTypeError(f"{fname}: relational value must be Boolean")
                if not _is_default(fn, value):
                    inner[tuple(args)] = value
            if inner:
                normalized[fname] = inner
        self._tables = normalized
        self.reserve_next = reserve_next

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
        fname, args = location.fname, location.args
        fn = self.vocabulary.lookup(fname)
        if fn is None:
            raise VocabularyError(f"unknown function name: {fname}")
        if len(args) != fn.arity:
            raise VocabularyError(
                f"{fname}: expected {fn.arity} arguments, got {len(args)}"
            )
        if fname == "true":
            return TRUE
        if fname == "false":
            return FALSE
        if fname == "undef":
            return UNDEF
        if fname == "=":
            return boolean(args[0] == args[1])
        if fname in ("and", "or", "not", "implies"):
            return _bool_op(fname, args)
        if fname in ("+", "mod", "<"):
            return self._int_op(fname, args)
        if self.vocabulary.integers and fname.isdigit():
            return self.make_integer(int(fname))
        if fname == "Reserve":
            a = args[0]
            return boolean(a.kind == "reserve" and a.value >= self.reserve_next)
        stored = self._tables.get(fname, {}).get(args)
        if stored is not None:
            return stored
        return FALSE if fn.is_relation else UNDEF

    def make_integer(self, value: int) -> Element:
        if self.vocabulary.modulus:
            value %= self.vocabulary.modulus
        return Element.integer(value)

    def _int_op(self, fname: str, args: tuple[Element, ...]) -> Element:
        a, b = args
        if a.kind != "int" or b.kind != "int":
            return FALSE if fname == "<" else UNDEF
        if fname == "+":
            return self.make_integer(a.value + b.value)
        if fname == "<":
            return boolean(a.value < b.value)
        if b.value == 0:
            return UNDEF
        return self.make_integer(a.value % b.value)

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
            table = self._tables[fname]
            for args in sorted(table, key=lambda t: tuple(a.sort_key() for a in t)):
                yield fname, args, table[args]

    # -- firing ---------------------------------------------------------------

    def _validate_update(self, u: Update) -> FunctionName:
        fn = self.vocabulary.lookup(u.location.fname)
        if fn is None:
            raise VocabularyError(f"unknown function name: {u.location.fname}")
        if len(u.location.args) != fn.arity:
            raise VocabularyError(
                f"{fn.name}: expected {fn.arity} arguments, got {len(u.location.args)}"
            )
        if fn.name == "Reserve":
            # Import withdraws elements by updating Reserve to false; nothing
            # else may touch it.
            if u.value != FALSE or u.location.args[0].kind != "reserve":
                raise IllegalUpdateError("Reserve can only be withdrawn from")
            return fn
        if fn.is_static:
            if not isinstance(u, StaticMirror) or fn.name in COMPUTED_NAMES:
                raise IllegalUpdateError(f"{fn.name}: static names cannot be updated")
        elif fn.is_logic:
            raise IllegalUpdateError(f"{fn.name}: logic names cannot be updated")
        if fn.is_relation and u.value not in _BOOLEANS:
            raise UpdateTypeError(
                f"{fn.name}: relational location needs a Boolean value, "
                f"got {format_element(u.value)}"
            )
        return fn

    def _apply(self, pairs: Iterable[tuple[Update, FunctionName]]) -> "State":
        tables = dict(self._tables)
        touched: set[str] = set()
        reserve_next = self.reserve_next
        for u, fn in pairs:
            if fn.name == "Reserve":
                reserve_next = max(reserve_next, u.location.args[0].value + 1)
                continue
            if fn.name not in touched:
                tables[fn.name] = dict(tables.get(fn.name, {}))
                touched.add(fn.name)
            if _is_default(fn, u.value):
                tables[fn.name].pop(u.location.args, None)
            else:
                tables[fn.name][u.location.args] = u.value
        for name in touched:
            if not tables[name]:
                del tables[name]
        return State._raw(self.vocabulary, tables, reserve_next)

    def fire_update(self, u: Update) -> "State":
        fn = self._validate_update(u)
        return self._apply([(u, fn)])

    def fire_update_set(self, beta: UpdateSet) -> tuple["State", bool]:
        """Fire all members simultaneously; an inconsistent set changes nothing."""
        pairs = [(u, self._validate_update(u)) for u in beta]
        if beta.conflicts():
            return self, False
        return self._apply(pairs), True

    def reserve_withdraw(self) -> tuple["State", Element]:
        element = Element.reserve(self.reserve_next)
        return State._raw(self.vocabulary, self._tables, self.reserve_next + 1), element

    def patch_static(self, patches: Iterable[tuple[Location, Element]]) -> "State":
        """Directly rewrite static tables (duplication mirroring only)."""
        tables = dict(self._tables)
        touched: set[str] = set()
        for loc, value in patches:
            fn = self.vocabulary.require(loc.fname)
            if loc.fname not in touched:
                tables[loc.fname] = dict(tables.get(loc.fname, {}))
                touched.add(loc.fname)
            if _is_default(fn, value):
                tables[loc.fname].pop(loc.args, None)
            else:
                tables[loc.fname][loc.args] = value
        for name in touched:
            if not tables[name]:
                del tables[name]
        return State._raw(self.vocabulary, tables, self.reserve_next)

    # -- reducts, expansions, views --------------------------------------------

    def reduct(self, sub: Vocabulary) -> "State":
        for fn in sub.names:
            if self.vocabulary.lookup(fn.name) != fn:
                raise VocabularyError(f"{fn.name}: not a subvocabulary entry")
        tables = {
            fname: table for fname, table in self._tables.items() if fname in sub
        }
        return State._raw(sub, tables, self.reserve_next)

    def expand(
        self,
        extra: Mapping[str, Element],
        signatures: Mapping[str, FunctionName] | None = None,
    ) -> "State":
        adds = []
        for name in extra:
            if name in self.vocabulary:
                raise VocabularyError(f"{name}: already interpreted, cannot expand")
            fn = (signatures or {}).get(name) or FunctionName(name, 0, is_static=True)
            adds.append(fn)
        vocab = self.vocabulary.extended(adds)
        tables = dict(self._tables)
        for name, element in extra.items():
            tables[name] = {(): element}
        return State._raw(vocab, tables, self.reserve_next)

    def carrier(self) -> "State":
        static = [fn.name for fn in self.vocabulary.names if fn.is_static]
        return self.reduct(self.vocabulary.subvocabulary(static))

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
        if self.vocabulary != other.vocabulary:
            raise VocabularyError("isomorphism requires a common vocabulary")
        return self.canonical_key() == other.canonical_key()

    def canonical_key(self):
        """Exact key identifying the stored facts up to reserve renaming.

        Two states over one vocabulary have equal keys iff they are
        :meth:`isomorphic`.  Without reserve elements the key is the fact
        set itself.  Otherwise it pairs the facts free of reserve elements
        with the canonical form of the rest (see :func:`_canonical_form`).
        The key is a plain value, independent of set and dict iteration
        order and of the hash seed; there is no limit on the number of
        reserve elements.
        """
        plain, moving = [], []
        for fact in self.facts():
            _, args, value = fact
            if value.kind == "reserve":
                moving.append(fact)
                continue
            for a in args:
                if a.kind == "reserve":
                    moving.append(fact)
                    break
            else:
                plain.append(fact)
        if not moving:
            return frozenset(plain)
        return frozenset(plain), _canonical_form(moving)

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


# -- canonical form ----------------------------------------------------------
#
# Individualisation-refinement as in nauty/Traces (McKay & Piperno 2014) and
# bliss (Junttila & Kaski 2007), where only reserve elements may be renamed.


class _Coded:
    """Facts mentioning reserve elements, coded for colour refinement.

    The k reserve elements are numbered 0..k-1 by serial.  A fact becomes
    ``(name, slots)``, the value being the last slot, and a slot indexes
    ``palette``: below k a reserve element, from k on the sort key of some
    other element.  A colouring gives each reserve element a colour in
    0..c-1; relabelling by it shows colour i as ``(3, i, "")``, the sort key
    of reserve element i.
    """

    def __init__(self, facts):
        # Elements are looked up by (kind, value): hashing that tuple is
        # cheaper than calling Element.__hash__.
        serials = sorted(
            {e.value for _, args, value in facts for e in (*args, value) if e.kind == "reserve"}
        )
        self.size = k = len(serials)
        reserve_at = {serial: i for i, serial in enumerate(serials)}
        other_at: dict[tuple, int] = {}
        self.palette: list = [None] * k
        self.facts = []
        # Where each reserve element occurs: slot positions and fact rows.
        self.positions: list[list[int]] = [[] for _ in serials]
        self.rows: list[list[int]] = [[] for _ in serials]
        for j, (fname, args, value) in enumerate(facts):
            slots = []
            for p, e in enumerate((*args, value)):
                if e.kind == "reserve":
                    at = reserve_at[e.value]
                    self.positions[at].append(p)
                    self.rows[at].append(j)
                else:
                    at = other_at.get((e.kind, e.value))
                    if at is None:
                        at = other_at[e.kind, e.value] = len(self.palette)
                        self.palette.append(e.sort_key())
                slots.append(at)
            self.facts.append((fname, tuple(slots)))

    def relabel(self, colour: list[int]) -> list:
        palette = self.palette
        palette[: self.size] = [(3, c, "") for c in colour]
        show = palette.__getitem__
        return [(fname, tuple(map(show, slots))) for fname, slots in self.facts]

    def form(self, colour: list[int]) -> tuple:
        return tuple(sorted(self.relabel(colour)))

    def refine(self, colour: list[int]) -> list[int]:
        """Split colours by the relabelled facts each element occurs in, and
        where, until no colour splits; renumber by the sorted signatures."""
        cells = len(set(colour))
        while cells < self.size:
            show = self.relabel(colour).__getitem__
            signatures = [
                (c, tuple(sorted(zip(ps, map(show, js)))))
                for c, ps, js in zip(colour, self.positions, self.rows)
            ]
            rank = {sig: r for r, sig in enumerate(sorted(set(signatures)))}
            colour = [rank[sig] for sig in signatures]
            if len(rank) == cells:
                break
            cells = len(rank)
        return colour

    def twins(self, colour: list[int]) -> list[int]:
        """The least twin of every element (itself if it has none).

        Twins are elements whose transposition maps the facts onto
        themselves.  They share a colour in every stable colouring, and
        twinship is an equivalence, so each element is compared with one
        member per class found so far in its colour.
        """
        present = set(self.facts)

        def swaps_onto(a: int, b: int) -> bool:
            for x in (a, b):
                for j in self.rows[x]:
                    fname, slots = self.facts[j]
                    swapped = tuple(b if s == a else a if s == b else s for s in slots)
                    if (fname, swapped) not in present:
                        return False
            return True

        twin = list(range(self.size))
        classes: dict[int, list[int]] = {}
        for x, c in enumerate(colour):
            reps = classes.setdefault(c, [])
            for r in reps:
                if swaps_onto(r, x):
                    twin[x] = r
                    break
            else:
                reps.append(x)
        return twin


def _canonical_form(facts) -> tuple:
    """Least relabelled tuple of ``facts`` over the leaves of the search tree.

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
    coded = _Coded(facts)
    colour = coded.refine([0] * coded.size)
    if len(set(colour)) == coded.size:
        return coded.form(colour)
    twin = coded.twins(colour)
    first = best = None  # (form, element of each label) of a leaf
    automorphisms: list[list[int]] = []
    frames = []  # (colour, individualised, untried cell members, explored)
    node = (colour, ())
    while node is not None:
        colour, prefix = node
        cell = _first_shared_cell(colour)
        while cell is not None and len({twin[x] for x in cell}) == 1:
            colour = coded.refine(_split(colour, cell))
            cell = _first_shared_cell(colour)
        if cell is None:
            form = coded.form(colour)
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
            node = (coded.refine(_split(colour, [x])), prefix + (x,))
    return best[0]


def _split(colour: list[int], head: list[int]) -> list[int]:
    """Give the members of ``head``, in order, colours of their own just
    ahead of the rest of their colour."""
    place = {x: n for n, x in enumerate(head)}
    pairs = [(c, place.get(x, len(head))) for x, c in enumerate(colour)]
    rank = {pair: r for r, pair in enumerate(sorted(set(pairs)))}
    return [rank[pair] for pair in pairs]


def _first_shared_cell(colour: list[int]) -> Optional[list[int]]:
    counts = [0] * len(colour)
    for c in colour:
        counts[c] += 1
    for c, n in enumerate(counts):
        if n > 1:
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
