"""Footprint completeness: a rule reads nothing outside its footprint.

Evaluating a rule at a state records a footprint: the locations the rule
read and the tables it read whole.  At any state that agrees with the first
on those locations, on those tables and on ``reserve_next``, and differs at
every other location, the rule gives the same update set, family or error
and records the same footprint.  The independence pass of
``check_partial_run`` and the conflict order of ``generate_partial_run``
are sound only if this holds.  The rules are the ``genrules`` basic, choice
and surface rules.
"""

from __future__ import annotations

import random
from itertools import product

from hypothesis import given, settings, strategies as st

from genrules import (
    BASIC_VOCAB,
    CHOICE_VOCAB,
    ELEMS,
    SURFACE_EXTERNALS,
    gen_basic_rule,
    gen_choice_rule,
)
from genrules import A, B, C
from test_updates_oracle import STORED, VOCAB as SURFACE_VOCAB, core_rule, oracle

from ealgebra import (
    FALSE,
    TRUE,
    UNDEF,
    EalgebraError,
    Footprint,
    Location,
    State,
    nupdates,
    updates,
)
from ealgebra.state import resolve
from ealgebra.syntax import has_choose


def tabled(vocabulary):
    """The names a state keeps in tables, with their signatures."""
    return [
        fn for fn in vocabulary.names
        if resolve(vocabulary, fn.name, fn.arity).kind == "table"
    ]


def values(fn, pool):
    return (TRUE, FALSE) if fn.is_relation else pool + (UNDEF,)


@st.composite
def states(draw, vocabulary, pool, reserve_next=0):
    """Any interpretation of the tabled names over ``pool``."""
    tables = {}
    for fn in tabled(vocabulary):
        choices = st.sampled_from(values(fn, pool))
        tables[fn.name] = {
            args: draw(choices) for args in product(pool, repeat=fn.arity)
        }
    return State(vocabulary, tables, reserve_next)


def elsewhere(state: State, locations, names, pool, shift: int) -> State:
    """``state`` kept at the footprint's locations and tables and changed at
    every other location over ``pool``: each value moves ``1 + shift``
    places along its kind's values, never a whole turn."""
    tables = {}
    for fn in tabled(state.vocabulary):
        kept = fn.name in names
        options = values(fn, pool)
        table = {}
        for args in product(pool + (UNDEF,), repeat=fn.arity):
            loc = Location(fn.name, args)
            value = state.read(loc)
            if not kept and loc not in locations:
                step = 1 + shift % (len(options) - 1)
                value = options[(options.index(value) + step) % len(options)]
            table[args] = value
        tables[fn.name] = table
    return State(state.vocabulary, tables, state.reserve_next)


def outcome(rule, state, **kwargs):
    footprint = Footprint()
    entry = nupdates if has_choose(rule) else updates
    try:
        result = entry(rule, state, footprint=footprint, **kwargs)
    except EalgebraError as exc:
        result = (type(exc), str(exc))
    return result, footprint.locations, footprint.names


def assert_complete(rule, state, pool, shift, **kwargs):
    first = outcome(rule, state, **kwargs)
    _, locations, names = first
    other = elsewhere(state, locations, names, pool, shift)
    assert outcome(rule, other, **kwargs) == first


shifts = st.integers(0, 10)
seeds = st.integers(0, 10**6)


@settings(max_examples=200, deadline=None)
@given(seeds, states(BASIC_VOCAB, ELEMS), shifts)
def test_basic_rules_read_only_their_footprint(seed, state, shift):
    rule = gen_basic_rule(random.Random(seed), 1 + seed % 3)
    assert_complete(rule, state, ELEMS, shift)


@settings(max_examples=200, deadline=None)
@given(seeds, states(CHOICE_VOCAB, (A, B, C)), shifts)
def test_choice_rules_read_only_their_footprint(seed, state, shift):
    rule = gen_choice_rule(random.Random(seed), 3, 2)
    assert_complete(rule, state, (A, B, C), shift)


@settings(max_examples=300, deadline=None)
@given(seeds, states(SURFACE_VOCAB, STORED, reserve_next=1), shifts, st.sampled_from(STORED))
def test_surface_rules_read_only_their_footprint(seed, state, shift, w):
    assert_complete(
        core_rule(seed), state, STORED, shift,
        env={"w": w}, oracle=oracle, externals=SURFACE_EXTERNALS,
    )
