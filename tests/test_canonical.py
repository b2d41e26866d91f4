"""Canonical keys against the brute-force isomorphism oracle."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from ealgebra import TRUE, Element, FunctionName, State, make_vocabulary

from isooracle import brute_isomorphic

VOCAB = make_vocabulary(
    [
        FunctionName("Node", 1, is_relation=True),
        FunctionName("Parent", 1),
        FunctionName("f", 2),
        FunctionName("g", 0),
    ],
    with_reserve=True,
)
CONSTANTS = (Element.named("a"), Element.named("b"))
ROOT = Element.named("root")


def build(facts) -> State:
    """A state holding ``facts``; a later fact at a location wins."""
    tables: dict = {}
    for fname, args, value in facts:
        tables.setdefault(fname, {})[args] = value
    serials = [
        e.value
        for table in tables.values()
        for args, value in table.items()
        for e in (*args, value)
        if e.kind == "reserve"
    ]
    return State(VOCAB, tables, reserve_next=max(serials, default=-1) + 1)


def rename(facts, mapping):
    def m(e):
        return mapping.get(e, e)

    return [(fname, tuple(m(a) for a in args), m(value)) for fname, args, value in facts]


@st.composite
def fact_lists(draw, max_reserve=6, max_facts=12):
    k = draw(st.integers(0, max_reserve))
    pool = [Element.reserve(i) for i in range(k)] + list(CONSTANTS)
    element = st.sampled_from(pool)
    fact = st.one_of(
        st.tuples(st.just("Node"), st.tuples(element), st.just(TRUE)),
        st.tuples(st.just("Parent"), st.tuples(element), element),
        st.tuples(st.just("f"), st.tuples(element, element), element),
        st.tuples(st.just("g"), st.just(()), element),
    )
    return k, draw(st.lists(fact, max_size=max_facts))


@st.composite
def renamings(draw, k):
    """A bijection of reserve serials 0..k-1 onto shuffled, shifted ones."""
    perm = draw(st.permutations(range(k)))
    shift = draw(st.integers(0, 3))
    return {Element.reserve(i): Element.reserve(shift + j) for i, j in enumerate(perm)}


@st.composite
def related_pairs(draw):
    """A state and a renamed copy, perhaps with one fact changed after."""
    k, facts = draw(fact_lists())
    other = rename(facts, draw(renamings(k)))
    change = draw(st.sampled_from(["none", "drop", "value", "add"]))
    pool = [Element.reserve(i) for i in range(k + 3)] + list(CONSTANTS)
    if change == "drop" and other:
        del other[draw(st.integers(0, len(other) - 1))]
    elif change == "value" and other:
        at = draw(st.integers(0, len(other) - 1))
        fname, args, _ = other[at]
        if fname != "Node":
            other[at] = (fname, args, draw(st.sampled_from(pool)))
    elif change == "add":
        other.append(("Parent", (draw(st.sampled_from(pool)),), draw(st.sampled_from(pool))))
    return build(facts), build(other)


def sibling_chains(m: int, serials) -> list:
    """A root with m children that each have one child of their own."""
    r = [Element.reserve(s) for s in serials]
    facts = []
    for i in range(m):
        child, grandchild = r[2 * i], r[2 * i + 1]
        facts += [("Parent", (child,), ROOT), ("Parent", (grandchild,), child)]
        facts += [("Node", (child,), TRUE), ("Node", (grandchild,), TRUE)]
    return facts


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_key_invariant_under_reserve_renaming(data):
    k, facts = data.draw(fact_lists(max_reserve=8, max_facts=16))
    mapping = data.draw(renamings(k))
    assert build(facts).canonical_key() == build(rename(facts, mapping)).canonical_key()


@settings(max_examples=300, deadline=None)
@given(related_pairs())
def test_key_equality_matches_brute_force_on_related_pairs(pair):
    one, other = pair
    assert (one.canonical_key() == other.canonical_key()) == brute_isomorphic(one, other)
    assert one.isomorphic(other) == brute_isomorphic(one, other)


@settings(max_examples=150, deadline=None)
@given(fact_lists(max_reserve=4, max_facts=6), fact_lists(max_reserve=4, max_facts=6))
def test_key_equality_matches_brute_force_on_independent_pairs(first, second):
    one, other = build(first[1]), build(second[1])
    assert (one.canonical_key() == other.canonical_key()) == brute_isomorphic(one, other)


@settings(max_examples=100, deadline=None)
@given(fact_lists(), st.randoms(use_true_random=False))
def test_equal_states_hash_alike(drawn, rng):
    _, facts = drawn
    one = build(facts)
    # Same final facts, inserted in another order.
    latest = {(fname, args): value for fname, args, value in facts}
    items = [(fname, args, value) for (fname, args), value in latest.items()]
    rng.shuffle(items)
    other = build(items)
    assert one == other
    assert hash(one) == hash(other)
    assert one.canonical_key() == other.canonical_key()


def test_key_without_reserve_is_the_fact_set():
    state = build([("Node", (ROOT,), TRUE), ("Parent", (CONSTANTS[0],), ROOT)])
    assert state.canonical_key() == frozenset(state.facts())


def test_sibling_chains_are_ties_but_not_twins():
    # The children share a colour after refinement but no transposition of
    # two of them is an automorphism: the search must individualise.
    for m in (2, 3):
        serials = list(range(2 * m))
        one = build(sibling_chains(m, serials))
        random.Random(m).shuffle(serials)
        other = build(sibling_chains(m, serials))
        assert one.canonical_key() == other.canonical_key()
        assert brute_isomorphic(one, other)
        # Move one grandchild under another child: a near miss.
        facts = sibling_chains(m, serials)
        child0, grandchild1 = facts[0][1][0], facts[5][1][0]
        moved = build(facts[:5] + [("Parent", (grandchild1,), child0)] + facts[6:])
        assert moved.canonical_key() != one.canonical_key()
        assert not brute_isomorphic(moved, one)


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(16)))
def test_many_sibling_chains_key_is_invariant(perm):
    assert (
        build(sibling_chains(8, range(16))).canonical_key()
        == build(sibling_chains(8, perm)).canonical_key()
    )


def cycles(lengths, serials, marked=()) -> list:
    """Parent cycles of the given lengths over reserve elements; the
    first element of each cycle numbered in ``marked`` is a Node."""
    r = iter(Element.reserve(s) for s in serials)
    facts = []
    for n, length in enumerate(lengths):
        ring = [next(r) for _ in range(length)]
        facts += [("Parent", (a,), b) for a, b in zip(ring, ring[1:] + ring[:1])]
        if n in marked:
            facts.append(("Node", (ring[0],), TRUE))
    return facts


cycle_lengths = st.lists(st.integers(1, 6), min_size=1, max_size=4).filter(
    lambda ls: sum(ls) <= 12
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cycle_unions_key_is_exact(data):
    # Every element has one parent and one child, so colour refinement
    # alone leaves them all tied: the key rests on the search.  Unions
    # of cycles are isomorphic iff their cycle lengths, with marks, agree.
    first = data.draw(cycle_lengths)
    second = data.draw(st.permutations(first) | cycle_lengths)
    marks = st.sets(st.integers(0, 3), max_size=2)
    first_marked, second_marked = data.draw(marks), data.draw(marks)
    one = build(cycles(first, data.draw(st.permutations(range(sum(first)))), first_marked))
    other = build(
        cycles(second, data.draw(st.permutations(range(sum(second)))), second_marked)
    )

    def shape(lengths, marked):
        return sorted((length, n in marked) for n, length in enumerate(lengths))

    same = shape(first, first_marked) == shape(second, second_marked)
    assert (one.canonical_key() == other.canonical_key()) == same


def test_six_cycle_and_two_triangles_differ():
    # Colour refinement cannot tell these apart; the canonical key must.
    six, triangles = build(cycles([6], range(6))), build(cycles([3, 3], range(6)))
    assert six.canonical_key() != triangles.canonical_key()
    assert not brute_isomorphic(six, triangles)


def test_many_twins_need_no_deep_search():
    leaves = [("Parent", (Element.reserve(i),), ROOT) for i in range(2000)]
    shuffled = rename(leaves, {Element.reserve(i): Element.reserve(1999 - i) for i in range(2000)})
    assert build(leaves).canonical_key() == build(shuffled).canonical_key()
