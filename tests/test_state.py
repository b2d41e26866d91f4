import random

import pytest

from ealgebra import (
    FALSE,
    TRUE,
    UNDEF,
    Element,
    FunctionName,
    IllegalUpdateError,
    Location,
    State,
    Update,
    UpdateSet,
    UpdateTypeError,
    SeededChooser,
    StateValidityError,
    VocabularyError,
    make_vocabulary,
    parse_program,
    parse_state,
)
from ealgebra.runner import move
from firing import fire_one, withdraw

P0, P1, P2 = (Element.integer(i) for i in range(3))
DOWN, UP, THINK, EAT = (Element.named(n) for n in ("down", "up", "think", "eat"))


def phil_vocab():
    return make_vocabulary(
        [
            FunctionName("Fork", 1),
            FunctionName("Mode", 1),
            FunctionName("Edge", 2, is_relation=True),
            FunctionName("Parent", 1),
        ],
        with_reserve=True,
        integers=True,
        modulus=3,
    )


def all_down_state():
    tables = {
        "Fork": {(p,): DOWN for p in (P0, P1, P2)},
        "Mode": {(p,): THINK for p in (P0, P1, P2)},
    }
    return State(phil_vocab(), tables)


def test_read_stored_value():
    s = all_down_state()
    assert s.read(Location("Fork", (P0,))) == DOWN


def test_read_reserve_argument_defaults_to_undef():
    s, r7 = all_down_state(), Element.reserve(7)
    assert s.read(Location("Parent", (r7,))) == UNDEF


def test_read_relation_on_undef_arguments_is_false():
    s = all_down_state()
    assert s.read(Location("Edge", (UNDEF, UNDEF))) == FALSE


def test_read_unknown_name_is_a_vocabulary_error():
    with pytest.raises(VocabularyError):
        all_down_state().read(Location("Nope", ()))


def test_fire_update_write_then_read():
    s = all_down_state()
    s2 = fire_one(s, Update(Location("Mode", (P0,)), EAT))
    assert s2.read(Location("Mode", (P0,))) == EAT
    assert s.read(Location("Mode", (P0,))) == THINK  # original untouched


def test_fire_identity_update_gives_equal_state():
    s = all_down_state()
    loc = Location("Mode", (P0,))
    s2 = fire_one(s, Update(loc, s.read(loc)))
    assert s2 == s


def test_fire_update_on_equality_is_illegal():
    s = all_down_state()
    with pytest.raises(IllegalUpdateError):
        fire_one(s, Update(Location("=", (P0, P1)), TRUE))


def test_fire_update_relational_needs_boolean():
    s = all_down_state()
    with pytest.raises(UpdateTypeError):
        fire_one(s, Update(Location("Edge", (P0, P1)), EAT))


def test_fire_update_set_simultaneous():
    s = all_down_state()
    beta = UpdateSet(
        [
            Update(Location("Fork", (P0,)), UP),
            Update(Location("Fork", (P1,)), UP),
            Update(Location("Mode", (P0,)), EAT),
        ]
    )
    s2, fired = s.fire_update_set(beta)
    assert fired
    assert s2.read(Location("Fork", (P0,))) == UP
    assert s2.read(Location("Fork", (P1,))) == UP
    assert s2.read(Location("Mode", (P0,))) == EAT
    assert s2.read(Location("Fork", (P2,))) == DOWN
    assert s2.read(Location("Mode", (P1,))) == THINK


def test_inconsistent_set_fires_as_a_noop():
    s = all_down_state()
    loc = Location("Mode", (P0,))
    beta = UpdateSet([Update(loc, EAT), Update(loc, THINK)])
    s2, fired = s.fire_update_set(beta)
    assert not fired
    assert s2 == s and s2 is s
    assert beta.conflicts() == {loc: frozenset({EAT, THINK})}


def test_empty_update_set_is_consistent():
    s = all_down_state()
    s2, fired = s.fire_update_set(UpdateSet())
    assert fired and s2 == s


def test_firing_order_irrelevance():
    rng = random.Random(5)
    s = all_down_state()
    updates = [
        Update(Location("Fork", (P0,)), UP),
        Update(Location("Mode", (P2,)), EAT),
        Update(Location("Fork", (P2,)), UP),
    ]
    simultaneous, _ = s.fire_update_set(UpdateSet(updates))
    for _ in range(5):
        rng.shuffle(updates)
        one_by_one = s
        for u in updates:
            one_by_one = fire_one(one_by_one, u)
        assert one_by_one == simultaneous


CHOOSE_PROGRAM = """\
vocabulary:
  dynamic f/1
  static relation U/1
constants c, a, b, d
program:
  choose v in U
    f(c) := v
  endchoose
"""


def fire_family(universe, chooser):
    """One move of ``choose v in U f(c) := v``: (state, (successor, record))."""
    program = parse_program(CHOOSE_PROGRAM)
    facts = "\n".join(f"U({name}) = true" for name in universe)
    s = parse_state(facts, program.vocabulary, constants=program.constants)
    return s, move(program, s, chooser)


class NoDraw:
    def choose(self, n):
        raise AssertionError("a forced choice must not draw")


def test_fire_family_empty_does_nothing():
    s, (after, record) = fire_family([], SeededChooser(1))
    assert record.family_size == 0
    assert after == s


def test_fire_family_singleton_is_forced():
    s, (chosen, record) = fire_family(["a"], NoDraw())
    c, a = Element.named("c"), Element.named("a")
    expected, _ = s.fire_update_set(UpdateSet([Update(Location("f", (c,)), a)]))
    assert record.family_size == 1
    assert chosen == expected


def test_fire_family_replays_under_the_same_seed():
    _, (first, record) = fire_family(["a", "b", "d"], SeededChooser(42))
    _, (second, _) = fire_family(["a", "b", "d"], SeededChooser(42))
    assert record.family_size == 3
    assert first == second


def test_reserve_withdraw_counts_up():
    s = all_down_state()
    s1, r0 = withdraw(s)
    s2, r1 = withdraw(s1)
    assert r0 != r1
    assert s.read(Location("Reserve", (r0,))) == TRUE
    assert s1.read(Location("Reserve", (r0,))) == FALSE
    assert s2.read(Location("Reserve", (r1,))) == FALSE


def test_reserve_withdraw_via_update_set():
    s = all_down_state()
    r0 = Element.reserve(0)
    beta = UpdateSet([Update(Location("Reserve", (r0,)), FALSE)])
    s2, fired = s.fire_update_set(beta)
    assert fired and s2.read(Location("Reserve", (r0,))) == FALSE


def test_unallocated_reserve_permutation_is_an_automorphism():
    # Only the allocator distinguishes unallocated serials: no table can
    # mention them, so states with equal tables are isomorphic.
    s = all_down_state()
    s1, _ = withdraw(s)
    assert s.isomorphic(all_down_state())
    assert s1._tables == s._tables


def test_isomorphic_identity_and_named_difference():
    s = all_down_state()
    assert s.isomorphic(s)
    s2 = fire_one(s, Update(Location("Mode", (P0,)), EAT))
    assert not s.isomorphic(s2)


def test_isomorphic_under_reserve_permutation():
    s = all_down_state()
    a, b = Element.reserve(0), Element.reserve(1)
    one = s.fire_update_set(
        UpdateSet(
            [
                Update(Location("Reserve", (a,)), FALSE),
                Update(Location("Reserve", (b,)), FALSE),
                Update(Location("Parent", (a,)), P0),
                Update(Location("Parent", (b,)), P1),
            ]
        )
    )[0]
    two = s.fire_update_set(
        UpdateSet(
            [
                Update(Location("Reserve", (a,)), FALSE),
                Update(Location("Reserve", (b,)), FALSE),
                Update(Location("Parent", (b,)), P0),
                Update(Location("Parent", (a,)), P1),
            ]
        )
    )[0]
    assert one != two
    assert one.isomorphic(two)


def test_isomorphic_is_an_equivalence_on_samples():
    s = all_down_state()
    variants = [s]
    for serials in ((0, 1), (1, 0), (2, 0)):
        a, b = (Element.reserve(k) for k in serials)
        variants.append(
            s.fire_update_set(
                UpdateSet(
                    [
                        Update(Location("Reserve", (a,)), FALSE),
                        Update(Location("Reserve", (b,)), FALSE),
                        Update(Location("Parent", (a,)), P0),
                        Update(Location("Parent", (b,)), P0),
                    ]
                )
            )[0]
        )
    for x in variants:
        assert x.isomorphic(x)  # reflexive
        for y in variants:
            assert x.isomorphic(y) == y.isomorphic(x)  # symmetric
            for z in variants:
                if x.isomorphic(y) and y.isomorphic(z):
                    assert x.isomorphic(z)  # transitive


def test_proviso_auditor_flags_reserve_leaks():
    """A reserve leak is flagged when the state is built, so every state
    meets the proviso and the auditor finds nothing."""
    assert all_down_state().audit_proviso() == []
    for table in ({(Element.reserve(5),): P0}, {(P0,): Element.reserve(5)}):
        with pytest.raises(
            StateValidityError, match="reserve: 0 conflicts with stored reserve element @5"
        ):
            State(phil_vocab(), {"Parent": table}, reserve_next=0)


def test_reserve_next_defaults_past_the_stored_reserve_elements():
    def parent_of(serial):
        return {"Parent": {(Element.reserve(serial),): P0}}

    with pytest.raises(StateValidityError, match="reserve: 0 conflicts .* @0"):
        State(phil_vocab(), parent_of(0), 0)
    first, renamed = State(phil_vocab(), parent_of(0)), State(phil_vocab(), parent_of(1))
    assert (first.reserve_next, renamed.reserve_next) == (1, 2)
    assert first.isomorphic(renamed)
    assert State(phil_vocab(), parent_of(0), 4).isomorphic(State(phil_vocab(), parent_of(1), 4))
    assert all_down_state().reserve_next == 0


def test_boolean_operations_follow_the_undef_rule():
    s = all_down_state()
    assert s.read(Location("and", (TRUE, UNDEF))) == UNDEF
    assert s.read(Location("and", (FALSE, UNDEF))) == UNDEF
    assert s.read(Location("and", (TRUE, FALSE))) == FALSE
    assert s.read(Location("or", (FALSE, TRUE))) == TRUE
    assert s.read(Location("not", (UNDEF,))) == UNDEF
    assert s.read(Location("implies", (FALSE, UNDEF))) == UNDEF
    assert s.read(Location("implies", (FALSE, FALSE))) == TRUE


def test_integer_operations_wrap_with_the_modulus():
    s = all_down_state()
    assert s.read(Location("+", (P2, Element.integer(1)))) == P0
    assert s.read(Location("+", (P0, DOWN))) == UNDEF
    assert s.read(Location("<", (P0, P1))) == TRUE
    assert s.read(Location("<", (P0, DOWN))) == FALSE
    assert s.read(Location("mod", (P2, Element.integer(2)))) == P0
    assert s.read(Location("mod", (P2, Element.integer(0)))) == UNDEF


@pytest.mark.parametrize("tables, error, message", [
    ({"Bogus": {(): TRUE}}, VocabularyError, "table for unknown function name: Bogus"),
    ({"Mode": {(): THINK}}, VocabularyError, "Mode: expected 1 arguments, got 0"),
    ({"P": {(P0,): THINK}}, UpdateTypeError, "P: relational value must be Boolean"),
])
def test_a_state_refuses_tables_its_vocabulary_does_not_allow(tables, error, message):
    vocabulary = make_vocabulary([FunctionName("Mode", 1), FunctionName("P", 1, is_relation=True)])
    with pytest.raises(error) as caught:
        State(vocabulary, tables)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("update, message", [
    (Update(Location("Reserve", (Element.reserve(0),)), TRUE), "Reserve can only be withdrawn from"),
    (Update(Location("Reserve", (Element.named("a"),)), FALSE), "Reserve can only be withdrawn from"),
    (Update(Location("Self"), Element.named("a")), "Self: logic names cannot be updated"),
])
def test_firing_refuses_to_grant_reserve_or_write_self(update, message):
    vocabulary = make_vocabulary([FunctionName("f", 0)], with_reserve=True, with_self=True)
    with pytest.raises(IllegalUpdateError) as caught:
        State(vocabulary).fire_update_set(UpdateSet([update]))
    assert type(caught.value) is IllegalUpdateError and str(caught.value) == message
