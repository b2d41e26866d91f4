"""Canonical keys against the brute-force isomorphism oracle."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ealgebra import TRUE, ContractViolation, Element, FunctionName, State, make_vocabulary

from canonoracle import old_key
from isooracle import brute_isomorphic

ROOT_DIR = Path(__file__).resolve().parent.parent
VOCAB = make_vocabulary(
    [
        FunctionName("Node", 1, is_relation=True),
        FunctionName("Parent", 1),
        FunctionName("f", 2),
        FunctionName("g", 0),
        FunctionName("E", 2, is_relation=True),
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
def related_pairs(draw, max_reserve=6, max_facts=12):
    """A state and a renamed copy, perhaps with one fact changed after."""
    k, facts = draw(fact_lists(max_reserve, max_facts))
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


def test_key_with_withdrawn_elements_none_stored_is_the_fact_set():
    state = build([("Node", (ROOT,), TRUE), ("Parent", (CONSTANTS[0],), ROOT)])
    withdrawn = State(VOCAB, {"Node": {(ROOT,): TRUE}, "Parent": {(CONSTANTS[0],): ROOT}}, 3)
    assert withdrawn.canonical_key() == frozenset(withdrawn.facts()) == state.canonical_key()
    assert withdrawn.isomorphic(state) and state.isomorphic(withdrawn)


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


@pytest.mark.parametrize("other", [42, None, "x"])
def test_isomorphic_refuses_what_is_not_a_state(other):
    with pytest.raises(ContractViolation, match="two states"):
        build([("Node", (ROOT,), TRUE)]).isomorphic(other)


# -- the old canonical form as a differential oracle -------------------------


@st.composite
def cycle_pairs(draw):
    """Two unions of marked cycles over up to 12 reserve elements."""
    lengths = st.lists(st.integers(1, 6), min_size=1, max_size=4).filter(lambda ls: sum(ls) <= 12)
    pair = []
    for _ in range(2):
        ls = draw(lengths)
        order = draw(st.permutations(range(sum(ls))))
        pair.append(build(cycles(ls, order, draw(st.sets(st.integers(0, 3), max_size=2)))))
    return tuple(pair)


@settings(max_examples=200, deadline=None)
@given(related_pairs(max_reserve=12, max_facts=24) | cycle_pairs())
def test_key_equality_matches_the_old_form_on_up_to_12_reserve_elements(pair):
    one, other = pair
    same_old = old_key(one.facts()) == old_key(other.facts())
    assert (one.canonical_key() == other.canonical_key()) == same_old


# -- symmetric structures ----------------------------------------------------
#
# Graphs with many automorphisms leave elements tied after refinement, and
# the automorphisms the search finds move the individualised prefix, so
# these exercise the search and its pruning rather than refinement.


def grid(rows: int, cols: int) -> list:
    return [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)] + [
        (i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)
    ]


def prism(n: int) -> list:
    return [(i, (i + 1) % n) for i in range(n)] + [
        (n + i, n + (i + 1) % n) for i in range(n)
    ] + [(i, n + i) for i in range(n)]


def moebius_ladder(n: int) -> list:
    """A 2n-cycle with a chord between each pair of opposite vertices."""
    return [(i, (i + 1) % (2 * n)) for i in range(2 * n)] + [(i, i + n) for i in range(n)]


PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [
    (i, 5 + i) for i in range(5)
]
K33 = [(a, b) for a in range(3) for b in range(3, 6)]
STRUCTURES = {
    "grid3x3": grid(3, 3),
    "grid4x3": grid(4, 3),
    "prism4": prism(4),
    "prism5": prism(5),
    "petersen": PETERSEN,
    "k33": K33,
}


def graph(edges, marked=(), serials=None) -> State:
    """Symmetric edges ``E`` between reserve elements; ``marked`` vertices
    are Nodes.  ``serials[v]`` is vertex v's serial (v by default)."""
    n = 1 + max(map(max, edges))
    r = [Element.reserve(v if serials is None else serials[v]) for v in range(n)]
    facts = [("E", (r[a], r[b]), TRUE) for a, b in edges] + [
        ("E", (r[b], r[a]), TRUE) for a, b in edges
    ]
    return build(facts + [("Node", (r[v],), TRUE) for v in marked])


def markings(edges) -> list[tuple[int, ...]]:
    """No mark, one, two adjacent and two apart."""
    apart = next(
        v for v in range(1, 1 + max(map(max, edges)))
        if (0, v) not in edges and (v, 0) not in edges
    )
    return [(), (0,), edges[0], (0, apart)]


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_symmetric_structures_keep_their_key_under_relabelling(name):
    edges = STRUCTURES[name]
    n = 1 + max(map(max, edges))
    rng = random.Random(name)
    for marked in markings(edges):
        key = graph(edges, marked).canonical_key()
        for _ in range(40):
            serials = rng.sample(range(3 * n), n)
            assert graph(edges, marked, serials).canonical_key() == key


def test_prism_and_moebius_ladder_on_8_elements_differ():
    # Both are 3-regular on 8 vertices, so refinement alone ties them.
    cube, ladder = graph(prism(4)), graph(moebius_ladder(4))
    assert cube.canonical_key() != ladder.canonical_key()
    assert not brute_isomorphic(cube, ladder)


@pytest.mark.parametrize("name", ["k33", "prism4", "moebius8"])
def test_symmetric_structures_agree_with_brute_force(name):
    edges = moebius_ladder(4) if name == "moebius8" else STRUCTURES[name]
    one_mark, adjacent, apart = markings(edges)[1:]
    n = 1 + max(map(max, edges))
    serials = random.Random(name).sample(range(n), n)
    # Same number of marks, so brute force must decide; it tries up to
    # 8! bijections for each pair, so there are few pairs on 8 elements.
    pairs = [(adjacent, apart), (adjacent, adjacent), (one_mark, one_mark)]
    if n <= 6:
        pairs += [(apart, apart), ((0, 1, 2), (0, 1, 3)), ((0, 1, 2), (3, 4, 5))]
    for first, second in pairs:
        one, other = graph(edges, first), graph(edges, second, serials)
        assert (one.canonical_key() == other.canonical_key()) == brute_isomorphic(one, other)


KEYS_OF_GROWTREE = """
from ealgebra import enumerate_reachable, load_state, parse_program_file
spec = parse_program_file("programs/growtree.ea")
state = load_state("programs/growtree.east", spec.vocabulary, constants=spec.constants)
for s, level in enumerate_reachable(spec, state, 4).states:
    print(level, repr(s.canonical_key()))
"""


def test_keys_print_alike_under_every_hash_seed():
    src = str(ROOT_DIR / "src")
    outputs = []
    for seed in "01":
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        outputs.append(subprocess.run(
            [sys.executable, "-c", KEYS_OF_GROWTREE], capture_output=True, text=True,
            env=env, cwd=ROOT_DIR, timeout=60, check=True,
        ).stdout)
    assert outputs[0] == outputs[1]
    assert [line.split()[0] for line in outputs[0].splitlines()] == [
        str(level) for level, count in enumerate((1, 1, 2, 4, 9)) for _ in range(count)
    ]
