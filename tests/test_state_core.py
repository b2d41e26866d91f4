"""Property tests of the state core: value-typed elements and updates,
derived fact sets, canonical keys, and tables stored as shared hash
tries past one leaf."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ealgebra import (
    FALSE,
    TRUE,
    UNDEF,
    Element,
    FunctionName,
    Location,
    State,
    StateValidityError,
    StaticMirror,
    Update,
    UpdateSet,
    make_vocabulary,
)
from ealgebra.state import EMPTY_UPDATE_SET, LEAF_SIZE, _canonical_form

VOCAB = make_vocabulary(
    [
        FunctionName("Node", 1, is_relation=True),
        FunctionName("Parent", 1),
        FunctionName("f", 2),
        FunctionName("g", 0),
        FunctionName("S", 1, is_static=True),
    ],
    with_reserve=True,
)
NAMED = (Element.named("a"), Element.named("b"))
MAX_RESERVE = 5


def scratch_key(state: State):
    """The canonical key by a fresh scan of the stored facts."""
    plain, moving = [], []
    for fact in state.facts():
        _, args, value = fact
        (moving if any(e.kind == "reserve" for e in (*args, value)) else plain).append(fact)
    if not moving:
        return frozenset(plain)
    _, labels, form = _canonical_form(moving)
    return frozenset(plain), labels, form


def rebuilt(state: State, reverse: bool = False) -> State:
    """A state with the same facts, built by ``__init__``, in either order."""
    facts = list(state.facts())
    tables: dict = {}
    for fname, args, value in reversed(facts) if reverse else facts:
        tables.setdefault(fname, {})[args] = value
    return State(state.vocabulary, tables, state.reserve_next)


@st.composite
def locations_and_values(draw, with_reserve: bool):
    k = MAX_RESERVE if with_reserve else 0
    element = st.sampled_from([Element.reserve(i) for i in range(k)] + list(NAMED))
    value = st.one_of(element, st.just(UNDEF))
    return draw(st.one_of(
        st.tuples(st.just("Node"), st.tuples(element), st.sampled_from((TRUE, FALSE))),
        st.tuples(st.just("Parent"), st.tuples(element), value),
        st.tuples(st.just("f"), st.tuples(element, element), value),
        st.tuples(st.just("g"), st.just(()), value),
        st.tuples(st.just("S"), st.tuples(element), value),
    ))


@st.composite
def update_set(draw, with_reserve: bool):
    """A consistent update set: one value per location, static names only
    by mirrors, sometimes a plain twin beside a mirror of a dynamic name,
    and withdrawals from the reserve."""
    chosen: dict = {}
    for fname, args, value in draw(st.lists(locations_and_values(with_reserve), max_size=5)):
        chosen.setdefault((fname, args), value)
    out = []
    for (fname, args), value in chosen.items():
        loc = Location(fname, args)
        if fname == "S":
            out.append(StaticMirror(loc, value))
        else:
            out.append(Update(loc, value))
            if draw(st.booleans()) and fname != "Node":
                out.append(StaticMirror(loc, value))
    if with_reserve:
        for serial in draw(st.lists(st.integers(0, MAX_RESERVE + 2), max_size=2)):
            out.append(Update(Location("Reserve", (Element.reserve(serial),)), FALSE))
    return UpdateSet(out)


@st.composite
def chains(draw):
    with_reserve = draw(st.booleans())
    facts = draw(st.lists(locations_and_values(with_reserve), max_size=10))
    tables: dict = {}
    for fname, args, value in facts:
        tables.setdefault(fname, {})[args] = value
    initial = State(VOCAB, tables, MAX_RESERVE if with_reserve else 0)
    steps = draw(st.lists(update_set(with_reserve), max_size=6))
    return initial, steps, draw(st.booleans())


def check_core(state: State):
    assert state._fact_set == frozenset(state.facts())
    assert state.canonical_key() == scratch_key(state)
    for other in (rebuilt(state), rebuilt(state, reverse=True)):
        assert other == state
        assert hash(other) == hash(state)
        assert other.canonical_key() == state.canonical_key()


@settings(max_examples=150, deadline=None)
@given(chains())
def test_kept_counts_fact_sets_and_keys_match_a_fresh_scan(chain):
    initial, steps, keyed = chain
    if keyed:  # successors derive their fact sets from their parents' once cached
        initial.canonical_key()
    state = plain = initial
    for beta in steps:
        cached = "_fact_set" in state.__dict__
        state, fired = state.fire_update_set(beta)
        plain, _ = rebuilt(plain).fire_update_set(beta)
        assert fired
        assert ("_fact_set" in state.__dict__) == cached
        check_core(state)
        assert plain == state and hash(plain) == hash(state)
    check_core(initial)


def test_an_update_and_its_mirror_stay_apart():
    loc, value = Location("S", (NAMED[0],)), NAMED[1]
    update, mirror = Update(loc, value), StaticMirror(loc, value)
    assert update != mirror and mirror != update
    assert not (update == mirror) and not (mirror == update)
    assert hash(update) != hash(mirror)
    assert mirror == StaticMirror(loc, value) and not (mirror != StaticMirror(loc, value))
    assert len(UpdateSet([update, mirror, StaticMirror(loc, value)])) == 2


def test_elements_of_different_kinds_are_unequal():
    assert Element.named("1") != Element.integer(1)
    assert Element.integer(1) != Element.reserve(1)
    assert Element.named("true") != TRUE
    assert len({Element.named("1"), Element.integer(1), Element.reserve(1)}) == 3


def test_reprs_are_the_fact_line_forms():
    r3, one = Element.reserve(3), Element.integer(1)
    assert [repr(e) for e in (NAMED[0], one, r3, UNDEF)] == ["<a>", "<1>", "<@3>", "<undef>"]
    assert repr(Location("g")) == "g"
    assert repr(Location("f", (r3, one))) == "f(@3, 1)"
    assert repr(Update(Location("Parent", (r3,)), NAMED[0])) == "Parent(@3) := a"
    assert repr(StaticMirror(Location("S", (one,)), r3)) == "~S(1) := @3"


# -- tables past one leaf ------------------------------------------------------
#
# A table of more than LEAF_SIZE facts is a persistent hash trie.  The
# properties below grow one unary table well past a leaf and shrink it back,
# comparing every state with a plain dict of its facts.

TABLE_VOCAB = make_vocabulary([FunctionName("F", 1)], with_reserve=True)
KEYS = range(-3, 120)  # -1 and -2 hash alike in CPython
TABLE_RESERVE = 4
I = Element.integer


def table_state(model: dict) -> State:
    return State(TABLE_VOCAB, {"F": {(I(k),): v for k, v in model.items()}}, TABLE_RESERVE)


def assert_matches(state: State, model: dict):
    """Reads, facts, output order and the kept core against ``model``
    (key -> element)."""
    for k in KEYS:
        assert state.read(Location("F", (I(k),))) == model.get(k, UNDEF)
    facts = list(state.facts())
    assert len(facts) == len(model)
    assert {args[0].value: value for _, args, value in facts} == model
    assert [(args[0].value, value) for _, args, value in state.stored_items()] == sorted(
        model.items()
    )
    table = state._tables.get("F")
    assert (table is None) == (not model)
    assert (type(table) is dict) == (0 < len(model) <= LEAF_SIZE)
    check_core(state)  # equal to, and hashed as, states built from its facts


@st.composite
def grow_and_shrink(draw):
    """Update sets that grow F past two leaves, then resets to the default
    that bring it back to one leaf and sometimes to nothing."""
    value = st.one_of(
        st.integers(0, 3).map(I),
        st.sampled_from([Element.reserve(i) for i in range(TABLE_RESERVE)]),
        st.just(UNDEF),
    )
    grow = draw(st.lists(
        st.dictionaries(st.sampled_from(KEYS), value, min_size=1, max_size=16),
        min_size=4, max_size=12,
    ))
    grow.append({k: I(1) for k in range(80)})  # at least 80 facts at the top
    order = draw(st.permutations(KEYS))
    batch = draw(st.integers(3, 16))
    floor = draw(st.sampled_from([0, LEAF_SIZE // 2, LEAF_SIZE]))
    return grow, order, batch, floor, draw(st.booleans())


@settings(max_examples=50, deadline=None)
@given(grow_and_shrink())
def test_tables_past_a_leaf_match_a_plain_dict(plan):
    grow, order, batch, floor, keyed = plan
    state, model = table_state({}), {}
    if keyed:  # successors derive their fact sets from their parents'
        state.canonical_key()

    def fire(chosen: dict):
        nonlocal state
        beta = UpdateSet(Update(Location("F", (I(k),)), v) for k, v in chosen.items())
        before = list(state.stored_items())
        child, fired = state.fire_update_set(beta)
        assert fired
        assert list(state.stored_items()) == before  # the parent is unchanged
        for k, v in chosen.items():
            if v == UNDEF:
                model.pop(k, None)
            else:
                model[k] = v
        assert ("_fact_set" in child.__dict__) == keyed
        # Unkeyed chains check a twin that shares the tables, so the child
        # keeps no cached fact set and the next firing does not derive one.
        assert_matches(child if keyed else State._raw(
            child.vocabulary, child._tables, child.reserve_next), model)
        state = child

    for chosen in grow:
        fire(chosen)
    assert len(model) >= 80
    resets = [k for k in order if k in model]
    while len(model) > floor:
        fire({k: UNDEF for k in resets[:batch]})
        del resets[:batch]
    assert len(model) <= LEAF_SIZE


def trie_path(trie, key):
    """The nodes on ``key``'s path, from the root down to its leaf."""
    nodes, node, h = [], trie.root, hash(key)
    while type(node) is tuple:
        nodes.append(node)
        node, h = node[h & 31], h >> 5
    return nodes + [node]


def test_firing_copies_only_the_changed_path():
    parent = table_state({k: I(0) for k in range(5000)})
    old = parent._tables["F"]
    for k, v in ((17, I(1)), (5000, I(1)), (42, UNDEF)):
        key = (I(k),)
        child, _ = parent.fire_update_set(UpdateSet([Update(Location("F", key), v)]))
        new = child._tables["F"]
        assert len(new) == 5000 + (k == 5000) - (v == UNDEF)
        h = hash(key)
        for a, b in zip(trie_path(old, key), trie_path(new, key)):
            assert a is not b  # on the path: new
            if type(a) is tuple:
                assert all(b[j] is a[j] for j in range(32) if j != h & 31)  # off it: shared
                h >>= 5
        assert child.read(Location("F", key)) == (UNDEF if v == UNDEF else v)
        assert child != parent  # same size, one fact apart
        assert child == table_state({j: I(0) for j in range(5000)} | {k: v})
    assert parent.read(Location("F", (I(42),))) == I(0)
    assert len(old) == 5000 and old.get((I(5000),)) is None


R3, R7 = Element.reserve(3), Element.reserve(7)


def withdraw(serial: int) -> Update:
    return Update(Location("Reserve", (Element.reserve(serial),)), FALSE)


@pytest.mark.parametrize("beta,message", [
    ([Update(Location("g"), R7)], "g := @7: @7 is still in the reserve"),
    ([Update(Location("f", (NAMED[0], R3)), NAMED[1])],
     "f(a, @3) := b: @3 is still in the reserve"),
    ([StaticMirror(Location("S", (R3,)), NAMED[0])], "~S(@3) := a: @3 is still in the reserve"),
    ([Update(Location("Parent", (R3,)), NAMED[0]), Update(Location("g"), R7)],
     "Parent(@3) := a: @3 is still in the reserve"),
    ([Update(Location("Parent", (R3,)), R7), withdraw(5)],
     "Parent(@3) := @7: @7 is still in the reserve"),
], ids=["value", "argument", "mirror", "least-update-named", "past-the-withdrawals"])
def test_firing_refuses_an_element_still_in_the_reserve(beta, message):
    state = State(VOCAB, {}, 2)
    for fire in (state.fire_update_set, state.checked):
        with pytest.raises(StateValidityError) as refused:
            fire(UpdateSet(beta))
        assert str(refused.value) == message


def test_firing_writes_what_the_set_withdraws_and_what_left_the_reserve():
    state = State(VOCAB, {}, 4)
    beta = UpdateSet([Update(Location("f", (R3, R7)), Element.reserve(6)), withdraw(7)])
    child, fired = state.fire_update_set(beta)
    assert fired and child.reserve_next == 8 and child.audit_proviso() == []
    assert repr(child) == "State(f(@3, @7)=@6; reserve@8)"


def test_a_withdrawal_counts_in_the_conflict_test_and_moves_the_serial_alone():
    state = State(VOCAB, {}, 4)
    clash = UpdateSet([withdraw(4), *(Update(Location("g"), v) for v in NAMED)])
    assert state.checked(clash) is None
    assert state.fire_update_set(clash) == (state, False)
    child, fired = state.fire_update_set(UpdateSet([withdraw(4)]))
    assert fired and child is not state and child.reserve_next == 5
    assert child._tables == state._tables


def test_the_audit_names_each_location_that_breaks_the_proviso():
    assert repr(State(VOCAB)) == "State(all default; reserve@0)"
    bad = State._raw(VOCAB, {
        "g": {(): R3},
        "f": {(R3, NAMED[0]): R7, (NAMED[0], NAMED[1]): NAMED[0]},
        "Parent": {(Element.reserve(1),): NAMED[1]},
    }, 2)
    assert bad.audit_proviso() == [
        "f(@3, a): stored for reserve argument @3",
        "f(@3, a): outputs reserve element @7",
        "g: outputs reserve element @3",
    ]
    assert repr(bad) == "State(Parent(@1)=b, f(a, b)=a, f(@3, a)=@7, g=@3; reserve@2)"


def test_firing_the_empty_set_gives_back_the_state():
    for state in (table_state({}), table_state({k: I(0) for k in range(100)})):
        state.canonical_key()  # a keyed state, whose facts are cached
        assert state.fire_update_set(EMPTY_UPDATE_SET) == (state, True)
        assert state.fire_update_set(EMPTY_UPDATE_SET)[0] is state


def test_keys_whose_hashes_agree_stay_apart():
    a, b = (I(-1),), (I(-2),)
    assert hash(a) == hash(b) and a != b
    for size in (2, 40):  # one leaf, and a trie
        model = {k: I(k % 3) for k in range(size - 2)}
        state = table_state(model)
        for k, v in ((-1, I(7)), (-2, I(8)), (-1, UNDEF), (-2, I(9)), (-1, I(5))):
            state, _ = state.fire_update_set(UpdateSet([Update(Location("F", (I(k),)), v)]))
            if v == UNDEF:
                model.pop(k, None)
            else:
                model[k] = v
            assert_matches(state, model)


class Clash(str):
    """A name that hashes like every other Clash."""

    def __hash__(self):
        return 7


def test_a_leaf_of_full_hash_collisions_grows_past_the_leaf_size():
    names = [Element.named(Clash(f"n{i:02}")) for i in range(LEAF_SIZE + 8)]
    assert len({hash((e,)) for e in names}) == 1
    state = State(TABLE_VOCAB, {"F": {(e,): TRUE for e in names[:LEAF_SIZE]}})
    for e in names[LEAF_SIZE:]:
        state, _ = state.fire_update_set(UpdateSet([Update(Location("F", (e,)), TRUE)]))
    table = state._tables["F"]
    assert len(table) == len(names) and len(trie_path(table, (names[0],))[-1]) == len(names)
    assert all(state.read(Location("F", (e,))) == TRUE for e in names)
    assert state == State(TABLE_VOCAB, {"F": {(e,): TRUE for e in reversed(names)}})
    for e in names[:9]:
        state, _ = state.fire_update_set(UpdateSet([Update(Location("F", (e,)), UNDEF)]))
    assert type(state._tables["F"]) is dict and len(state._tables["F"]) == LEAF_SIZE - 1
    assert [args for _, args, _ in state.stored_items()] == [(e,) for e in names[9:]]
