"""``updates`` and ``nupdates`` against the walkers they replaced.

``tests/interporacle.py`` keeps the old inductions: the deterministic
walker and the tree-walking family walker.  On random core rules at random
states the compiled rule gives the same update set (choice-free rules) or
the same family (rules with choose), reads the same footprint, and fails
with the same exception type and message.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import interporacle
from genrules import SURFACE_EXTERNALS, gen_surface_rule

from ealgebra import (
    TRUE,
    UNDEF,
    EalgebraError,
    Element,
    Footprint,
    FunctionName,
    ModeError,
    State,
    format_element,
    make_vocabulary,
    nupdates,
    updates,
)
from ealgebra.syntax import (
    App,
    Atom,
    Block,
    Choose,
    Cond,
    Decl,
    UniverseRange,
    UpdateInstr,
    Var,
    desugar,
    has_choose,
    make_perspicuous,
)

VOCAB = make_vocabulary(
    [
        FunctionName("f", 1),
        FunctionName("e", 1),
        FunctionName("k", 0),
        FunctionName("g", 0),
        FunctionName("r", 1, is_relation=True),
        FunctionName("Active", 1, is_relation=True, is_static=True),
        FunctionName("U", 1, is_relation=True),
        FunctionName("c", 0, is_static=True),
        FunctionName("d", 0, is_static=True),
    ],
    with_reserve=True,
    with_self=True,
)
A, B, R0 = Element.named("a"), Element.named("b"), Element.reserve(0)
STORED = (A, B, R0)
# Answers past the reserve bound and non-Booleans reach the error paths.
ANSWERS = (A, B, UNDEF, TRUE, R0, Element.reserve(1))


def oracle(fname, args):
    key = fname + "".join(format_element(a) for a in args)
    return ANSWERS[sum(map(ord, key)) % len(ANSWERS)]


def core_rule(seed: int):
    rule = desugar(gen_surface_rule(random.Random(seed), 1 + seed % 3))
    return make_perspicuous(rule, {fn.name for fn in VOCAB.names} | {"w"})


choice_free = st.integers(0, 10**6).map(core_rule).filter(lambda r: not has_choose(r))
choosing = st.integers(0, 10**6).map(core_rule).filter(has_choose)
values = st.sampled_from(STORED + (UNDEF,))


@st.composite
def states(draw):
    tables = {}
    row = {(a,): v for a in STORED if (v := draw(values)) != UNDEF}
    if row:
        tables["f"] = row
    for name in ("r", "Active", "U"):
        members = draw(st.sets(st.sampled_from(STORED)))
        if members:
            tables[name] = {(a,): TRUE for a in members}
    for name in ("g", "c", "d", "Self"):
        if (v := draw(values)) != UNDEF:
            tables[name] = {(): v}
    return State(VOCAB, tables, 1)


def outcome(entry, rule, state, w):
    footprint = Footprint()
    try:
        result = entry(
            rule, state, {"w": w},
            oracle=oracle, externals=SURFACE_EXTERNALS, footprint=footprint,
        )
    except EalgebraError as exc:
        result = (type(exc), str(exc))
    return result, footprint.locations, footprint.names


@settings(max_examples=400, deadline=None)
@given(choice_free, states(), st.sampled_from(STORED))
def test_updates_match_the_old_walker(rule, state, w):
    assert outcome(updates, rule, state, w) == outcome(interporacle.updates, rule, state, w)


@settings(max_examples=300, deadline=None)
@given(choosing, states(), st.sampled_from(STORED))
def test_nupdates_matches_the_tree_walker(rule, state, w):
    assert outcome(nupdates, rule, state, w) == outcome(interporacle.nupdates, rule, state, w)


def test_a_choose_in_a_branch_not_taken_still_raises():
    s = State(VOCAB, {}, 0)
    pick = Choose(("x",), "U", None, UpdateInstr("g", (), App("c")))
    rule = Block((UpdateInstr("g", (), App("undef")), Cond(((Atom(App("false")), pick),))))
    assert interporacle.updates(rule, s) is not None  # the old walk never met it
    with pytest.raises(ModeError, match="no deterministic update set"):
        updates(rule, s)


def test_a_declaration_stops_at_its_first_empty_family():
    # The body chooses from the empty U, so the family is empty after the
    # first value of x and the guard is never read at the second one.
    pick = Choose(("y",), "U", None, UpdateInstr("g", (), Var("y")))
    rule = Decl("x", UniverseRange("r"), Cond(((Atom(App("r", (Var("x"),))), pick),)))
    s = State(VOCAB, {"r": {(A,): TRUE, (B,): TRUE}}, 0)
    got = outcome(nupdates, rule, s, A)
    assert got == outcome(interporacle.nupdates, rule, s, A)
    family, locations, names = got
    assert not family and len(locations) == 1 and names == {"r", "U"}
