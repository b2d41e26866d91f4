"""Footprint completeness: a rule reads nothing outside its footprint.

Evaluating a rule at a state records a footprint: the locations the rule
read and the tables it read whole.  At any state that agrees with the first
on those locations, on those tables and on ``reserve_next``, and differs at
every other location, the rule gives the same update set, family or error
and records the same footprint.  The independence pass of
``check_partial_run`` and the conflict order of ``generate_partial_run``
are sound only if this holds.  The rules are the ``genrules`` basic, choice
and surface rules, and the ``genrules`` guards, quantified ones among
them, which ``enumerate`` checks instance by instance.  An agent's move
also records ``Mod(Self)``; its module name's location needs no entry,
since no update writes it.
"""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from genrules import (
    BASIC_VOCAB,
    CHOICE_VOCAB,
    ELEMS,
    SURFACE_BINDERS,
    SURFACE_EXTERNALS,
    gen_basic_rule,
    gen_choice_rule,
    gen_guard,
    gen_surface_guard,
)
from genrules import A, B, C
from test_updates_oracle import STORED, VOCAB as SURFACE_VOCAB, core_rule, oracle

from ealgebra import (
    FALSE,
    DistributedSpec,
    Element,
    FunctionName,
    ParseError,
    Program,
    TRUE,
    UNDEF,
    EalgebraError,
    Footprint,
    Location,
    State,
    eval_guard,
    make_vocabulary,
    nupdates,
    parse_program,
    parse_state,
    updates,
)
from ealgebra.distributed import _agent, agent_move
from ealgebra.runner import resolutions
from ealgebra.state import resolve
from ealgebra.syntax import App, Atom, BoolGuard, QuantGuard, _map, has_choose, parts, rebuild


def tabled(vocabulary):
    """The names a state keeps in tables, with their signatures."""
    return [
        fn for fn in vocabulary.names
        if resolve(vocabulary, fn.name, fn.arity).kind == "table"
    ]


def values(fn, pool):
    return (TRUE, FALSE) if fn.is_relation else pool + (UNDEF,)


@st.composite
def states(draw, vocabulary, pool, reserve_next=0, fixed=None):
    """Any interpretation of the tabled names over ``pool``; a location in
    ``fixed`` draws its value from the strategy given there."""
    tables = {}
    for fn in tabled(vocabulary):
        choices = st.sampled_from(values(fn, pool))
        tables[fn.name] = {
            args: draw((fixed or {}).get(Location(fn.name, args), choices))
            for args in product(pool, repeat=fn.arity)
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


def outcome(node, state, **kwargs):
    """What a rule or a guard gives at ``state``, or its error, with the
    footprint the evaluation recorded."""
    footprint = Footprint()
    try:
        if isinstance(node, (Atom, BoolGuard, QuantGuard)):
            result = eval_guard(state, kwargs.pop("env", None), node, footprint=footprint, **kwargs)
        else:
            entry = nupdates if has_choose(node) else updates
            result = entry(node, state, footprint=footprint, **kwargs)
    except EalgebraError as exc:
        result = (type(exc), str(exc))
    return result, footprint.locations, footprint.names


def assert_complete(node, state, pool, shift, **kwargs):
    first = outcome(node, state, **kwargs)
    _, locations, names = first
    other = elsewhere(state, locations, names, pool, shift)
    assert outcome(node, other, **kwargs) == first


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


# -- guards ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(seeds, states(BASIC_VOCAB, ELEMS), shifts)
def test_basic_guards_read_only_their_footprint(seed, state, shift):
    assert_complete(gen_guard(random.Random(seed), 1 + seed % 3), state, ELEMS, shift)


def surface_guard(seed: int):
    """A ``genrules`` surface guard; every other one is quantified over U
    at the top."""
    rng = random.Random(seed)
    if seed % 2:
        return gen_surface_guard(rng, [], 3)
    var = rng.choice(SURFACE_BINDERS)
    return QuantGuard(rng.choice(("exists", "forall")), var, "U", gen_surface_guard(rng, [var], 2))


@settings(max_examples=300, deadline=None)
@given(seeds, states(SURFACE_VOCAB, STORED, reserve_next=1), shifts, st.sampled_from(STORED))
def test_surface_guards_read_only_their_footprint(seed, state, shift, w):
    assert_complete(
        surface_guard(seed), state, STORED, shift,
        env={"w": w}, oracle=oracle, externals=SURFACE_EXTERNALS,
    )


# -- agent moves ---------------------------------------------------------------


def as_self(node, name: str):
    """``node`` with the constant ``name`` read as Self."""
    if isinstance(node, App) and node.fname == name and not node.args:
        return App("Self")
    binders, outside, inside = parts(node)
    return rebuild(
        node, binders, _map(lambda c: as_self(c, name), outside),
        _map(lambda c: as_self(c, name), inside),
    )


def agent_spec(vocabulary, rules, self_name: str) -> DistributedSpec:
    """Modules M and N running ``rules``, which read ``self_name`` as Self."""
    user = [fn for fn in vocabulary.names if not fn.is_logic]
    module = make_vocabulary(user, with_self=True)
    shared = make_vocabulary(
        user + [FunctionName("Mod", 1)]
        + [FunctionName(name, 0, is_static=True) for name in "MN"]
    )
    return DistributedSpec(
        tuple((name, Program(module, as_self(rule, self_name))) for name, rule in zip("MN", rules)),
        shared,
    )


def agent_outcome(spec, pool, state):
    """The move of ``pool[0]`` as ``enumerate`` evaluates it, given the
    module-element map, which is fixed: module names are static."""
    program = _agent(spec, {pool[1]: "M", pool[2]: "N"}, state, pool[0])
    module = next(name for name, p in spec.module_list if p is program)
    footprint = Footprint()
    try:
        result = resolutions(program, state, footprint=footprint, agent=pool[0])
    except EalgebraError as exc:
        result = (type(exc), str(exc))
    return module, result, footprint.locations, footprint.names


def assert_agent_complete(spec, state, pool, shift):
    first = agent_outcome(spec, pool, state)
    _, _, locations, names = first
    assert Location("Mod", (pool[0],)) in locations
    other = elsewhere(state, locations, names | {"M", "N"}, pool, shift)
    assert agent_outcome(spec, pool, other) == first


def agent_states(vocabulary, pool):
    """States where M and N name ``pool[1]`` and ``pool[2]`` and ``pool[0]``
    is an agent of either."""
    agent, m, n = pool
    return states(agent_spec(vocabulary, (), "").vocabulary, pool, fixed={
        Location("M"): st.just(m), Location("N"): st.just(n),
        Location("Mod", (agent,)): st.sampled_from((m, n)),
    })


@settings(max_examples=200, deadline=None)
@given(seeds, agent_states(BASIC_VOCAB, ELEMS), shifts)
def test_basic_agent_moves_read_only_their_footprint(seed, state, shift):
    rng = random.Random(seed)
    rules = [gen_basic_rule(rng, 1 + seed % 3) for _ in "MN"]
    assert_agent_complete(agent_spec(BASIC_VOCAB, rules, "z"), state, ELEMS, shift)


@settings(max_examples=200, deadline=None)
@given(seeds, agent_states(CHOICE_VOCAB, (A, B, C)), shifts)
def test_choice_agent_moves_read_only_their_footprint(seed, state, shift):
    rng = random.Random(seed)
    rules = [gen_choice_rule(rng, 3, 2) for _ in "MN"]
    assert_agent_complete(agent_spec(CHOICE_VOCAB, rules, "c"), state, (A, B, C), shift)


# Phil's module program duplicates the element Phil denotes, which
# mirrors P and Mode onto the copy; Mod(a) holds Phil as a value, not an
# argument, and Phil's own location has no arguments.
MODULE_NAME = """\
vocabulary:
  dynamic Mode/1, Copy/0
  static relation P/1
constants think, a
module Phil:
  if Mod(Self) = Phil and P(Phil) and Mode(Phil) = think then
    duplicate Phil as v
      Copy := v
    endduplicate
  endif
"""


def test_a_module_name_is_never_written_so_a_move_records_only_mod_self():
    with pytest.raises(ParseError, match="Phil: static names cannot be updated"):
        parse_program(MODULE_NAME.replace("Copy := v", "Phil := v"))
    spec = parse_program(MODULE_NAME)
    state = parse_state("Mod(a) = Phil\nP(Phil) = true\nMode(Phil) = think",
                        spec.vocabulary, constants=spec.constants)
    a, copy = state.read(Location("a")), Element.reserve(0)
    moved, resolved = Footprint(), Footprint()
    _, record = agent_move(spec, state, a, footprint=moved)
    [beta], _ = resolutions(spec.modules["Phil"], state, footprint=resolved, agent=a)
    assert record.updates == beta
    assert {u.location for u in beta} == {
        Location("Copy"), Location("Reserve", (copy,)), Location("P", (copy,)),
        Location("Mode", (copy,)),
    }
    assert (moved.locations, moved.names) == (resolved.locations, resolved.names)
    assert Location("Mod", (a,)) in moved.locations
