"""Property tests of the state core: value-typed elements and updates,
the kept count of reserve facts, derived fact sets and canonical keys."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from ealgebra import (
    FALSE,
    TRUE,
    UNDEF,
    Element,
    FunctionName,
    Location,
    State,
    StaticMirror,
    Update,
    UpdateSet,
    make_vocabulary,
)
from ealgebra.state import _canonical_form

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


def mentions_reserve(args, value) -> bool:
    return any(e.kind == "reserve" for e in (*args, value))


def scratch_key(state: State):
    """The canonical key by a fresh scan of the stored facts."""
    plain, moving = [], []
    for fact in state.facts():
        (moving if mentions_reserve(fact[1], fact[2]) else plain).append(fact)
    return frozenset(plain) if not moving else (frozenset(plain), _canonical_form(moving))


def rebuilt(state: State, reverse: bool = False) -> State:
    """A state with the same facts, built by ``__init__``, in either order."""
    facts = list(state.facts())
    tables: dict = {}
    for fname, args, value in reversed(facts) if reverse else facts:
        tables.setdefault(fname, {})[args] = value
    return State(VOCAB, tables, state.reserve_next)


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
    return UpdateSet.of(out)


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
    recount = sum(mentions_reserve(args, value) for _, args, value in state.facts())
    assert state._reserve_facts == recount
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
    assert len(UpdateSet.of([update, mirror, StaticMirror(loc, value)])) == 2


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
