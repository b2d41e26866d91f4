"""Records traces and the orders every output sorts by.

``runner.record_to_json`` writes each line directly; these tests hold it
to the ``json.dumps`` encoder kept in ``recordoracle``, hold the flat sort
keys of ``UpdateSet.sorted_updates``, ``UpdateFamily.sorted_members``
and ``State.stored_items`` to the nested keys, and check that every step line decodes and encodes back to
itself, conflicts included, and to an equal record.  A plain update
sorts before its ``StaticMirror`` twin under every hash seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import recordoracle
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
    StepRecord,
    Update,
    UpdateFamily,
    UpdateSet,
    format_certificate,
    format_state,
    generate_partial_run,
    make_vocabulary,
    parse_certificate,
    parse_program,
    parse_state,
    render_trace,
    replay_record,
    run,
    step,
)
from ealgebra import evaluator
from ealgebra.errors import ParseError
from ealgebra.runner import record_from_json, record_to_json

from conftest import load_initial, load_program

GOLDEN = Path(__file__).resolve().parent / "golden"

# Strings that json escapes: quotes, backslashes, control and non-ASCII
# characters, and a character outside the basic plane.
TEXT = st.sampled_from(["a", "b", "Node", 'q"t', "back\\slash", "tab\t", "é", "\U0001f600"])
ELEMENTS = st.one_of(
    st.sampled_from([TRUE, FALSE, UNDEF]),
    st.builds(Element.named, TEXT),
    st.builds(Element.integer, st.integers(-5, 5)),
    st.builds(Element.reserve, st.integers(0, 5)),
)
NAMES = st.sampled_from(["f", "g", "Reserve", "ü"])


@st.composite
def updates(draw):
    """An update of a few names, arities and elements, so that locations
    repeat, with differing values, and one name takes several arities."""
    location = Location(draw(NAMES), tuple(draw(st.lists(ELEMENTS, max_size=2))))
    kind = draw(st.sampled_from([Update, Update, StaticMirror]))
    return kind(location, draw(ELEMENTS))


UPDATE_SETS = st.builds(UpdateSet, st.lists(updates(), max_size=6))


@st.composite
def records(draw) -> StepRecord:
    """A record as ``runner.move`` makes them: only a consistent set
    fires."""
    beta = draw(UPDATE_SETS)
    fired = draw(st.booleans()) and not beta.conflicts()
    family_size = draw(st.sampled_from([None, 0, 1, 3]))
    choice = draw(st.sampled_from([None, 0, 2]))
    oracle = draw(st.lists(st.tuples(NAMES, st.lists(ELEMENTS, max_size=2).map(tuple), ELEMENTS), max_size=2))
    return StepRecord(
        index=draw(st.integers(1, 10**6)),
        updates=beta,
        fired=fired,
        choice_index=choice,
        family_size=family_size,
        oracle_qa=tuple(oracle),
        agent=draw(st.one_of(st.none(), ELEMENTS)),
    )


@settings(max_examples=400, deadline=None)
@given(records())
def test_records_encode_as_json_dumps_does(record):
    line = record_to_json(record)
    assert line == recordoracle.record_to_json(record)
    assert record_from_json(line) == record
    assert record_to_json(record_from_json(line)) == line


@settings(max_examples=300, deadline=None)
@given(UPDATE_SETS)
def test_updates_sort_as_by_the_nested_keys(beta):
    assert beta.sorted_updates() == recordoracle.sorted_updates(beta)


@settings(max_examples=200, deadline=None)
@given(st.lists(UPDATE_SETS, max_size=5))
def test_family_members_sort_as_by_the_nested_keys(sets):
    family = UpdateFamily(sets)
    assert family.sorted_members() == recordoracle.sorted_members(family)


VOCAB = make_vocabulary(
    [
        FunctionName("Node", 1, is_relation=True),
        FunctionName("f", 2),
        FunctionName("g", 0),
        FunctionName("h", 1),
    ],
    with_reserve=True,
)


@st.composite
def states(draw) -> State:
    tables: dict = {}
    for fname, arity in (("Node", 1), ("f", 2), ("g", 0), ("h", 1)):
        values = st.sampled_from([TRUE, FALSE]) if fname == "Node" else ELEMENTS
        for args in draw(st.lists(st.lists(ELEMENTS, min_size=arity, max_size=arity), max_size=6)):
            tables.setdefault(fname, {})[tuple(args)] = draw(values)
    return State(VOCAB, tables, 6)


@settings(max_examples=200, deadline=None)
@given(states())
def test_stored_facts_sort_as_by_the_nested_keys(state):
    assert list(state.stored_items()) == recordoracle.stored_items(state)


def test_step_lines_of_every_golden_records_trace_round_trip():
    lines = [
        line
        for path in sorted(GOLDEN.glob("run_*_records.txt"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.startswith("{") and "step" in json.loads(line)
    ]
    assert len(lines) > 50
    for line in lines:
        assert record_to_json(record_from_json(line)) == line


def test_every_golden_records_trace_replays_from_its_initial_state():
    """Import, extend and duplicate write what they withdraw, so every set
    the engine recorded fires again under the reserve check."""
    replayed = []
    for path in sorted(GOLDEN.glob("run_*_records.txt")):
        status, header, *lines = path.read_text(encoding="utf-8").splitlines()
        if status != "exit 0":
            continue
        trace = json.loads(header)["trace"]
        target = load_program(trace["program"])
        state = load_initial(trace["state"], target)
        for line in lines:
            if line.startswith("{") and "step" in json.loads(line):
                state = replay_record(state, record_from_json(line))
        assert state.audit_proviso() == []
        replayed.append(trace["program"])
    assert {"dupdemo.ea", "extendnodes.ea", "grow.ea", "growtree.ea"} <= set(replayed)


@pytest.mark.parametrize("update,message", [
    ('{"args": [], "f": "c", "value": "r:7"}', "c := @7: @7 is still in the reserve"),
    ('{"args": ["r:3"], "f": "G", "value": "n:a"}', "G(@3) := a: @3 is still in the reserve"),
], ids=["value", "argument"])
def test_a_record_that_writes_an_element_still_in_the_reserve_is_refused(update, message):
    line = f'{{"consistent": true, "fired": true, "oracle": [], "step": 1, "updates": [{update}]}}'
    empty = State(make_vocabulary([FunctionName("c", 0), FunctionName("G", 1)],
                                  with_reserve=True))
    with pytest.raises(StateValidityError) as refused:
        replay_record(empty, record_from_json(line))
    assert str(refused.value) == message


CLASH = """\
vocabulary:
  dynamic c/0
pragma integers
program:
  c := 1, c := 2
"""


def test_an_inconsistent_step_round_trips_with_its_conflicts():
    program = parse_program(CLASH)
    _, record = step(program, State(program.vocabulary, {}))
    line = record_to_json(record)
    assert '"conflicts": ["c in {1, 2}"]' in line
    again = record_from_json(line)
    assert again.conflicts == record.conflicts
    assert record_to_json(again) == line
    for forged in (
        line.replace('"c in {1, 2}"', '"c in {1, 3}"'),
        line.replace('"conflicts": ["c in {1, 2}"], ', ""),
        line.replace('"fired": false', '"fired": true'),
    ):
        with pytest.raises(ParseError, match="conflicts"):
            record_from_json(forged)


COUNTER = """\
vocabulary:
  dynamic c/0, F/1
pragma integers
program:
  c := c + 1, F(c) := c
"""


def test_a_long_counter_run_renders_as_the_oracles():
    program = parse_program(COUNTER)
    trace = run(program, parse_state("c = 0\n", program.vocabulary), max_steps=2000)
    assert len(trace.records) == 2000
    assert render_trace(trace, fmt="records") == recordoracle.render_records(trace)
    assert render_trace(trace, fmt="text") == recordoracle.render_text(trace)
    facts = recordoracle.stored_items(trace.final_state)
    assert list(trace.final_state.stored_items()) == facts
    assert format_state(trace.final_state).count("\n") == len(facts) == 2001


CLASHES = """\
vocabulary:
  dynamic x/0, F/1
pragma integers
program:
  x := 1, x := 2, F(9) := 1, F(10) := 1, F(10) := 2, F(9) := 2
"""


def test_a_conflicting_step_renders_its_conflicts_in_both_formats():
    # Text lists conflicts by location (F(9) before F(10)), records by
    # their strings ("F(10) ..." before "F(9) ...").
    program = parse_program(CLASHES)
    trace = run(program, parse_state("", program.vocabulary), max_steps=1)
    assert render_trace(trace, fmt="text") == (
        "step 1 consistent=no fired=no\n"
        "  update F(9) := 1\n  update F(9) := 2\n  update F(10) := 1\n  update F(10) := 2\n"
        "  update x := 1\n  update x := 2\n"
        "  conflict F(9) in {1, 2}\n  conflict F(10) in {1, 2}\n  conflict x in {1, 2}\n"
        "stop max-steps\n"
    )
    step_line, stop_line = render_trace(trace, fmt="records").splitlines()
    assert step_line.startswith('{"conflicts": ["F(10) in {1, 2}", "F(9) in {1, 2}", "x in {1, 2}"], ')
    assert stop_line == '{"stop": "max-steps"}'
    assert render_trace(trace, fmt="text") == recordoracle.render_text(trace)
    assert render_trace(trace, fmt="records") == recordoracle.render_records(trace)


CHOICE = """\
vocabulary:
  dynamic f/0, g/0
  static relation U/1
constants a, b
program:
  g := a
  choose v in U
    f := v
  endchoose
"""


def test_every_update_set_handed_out_is_an_update_set():
    # conflicts() and sorted_updates() come with the type.
    program = parse_program(CHOICE)
    state = parse_state("U(a) = true\nU(b) = true\n", program.vocabulary, constants=program.constants)
    betas = [
        evaluator.updates(program.rule.rules[0], state), *evaluator.nupdates(program.rule, state),
    ]
    _, record = step(program, state)
    betas.append(record_from_json(record_to_json(record)).updates)
    pick = load_program("pick.ea")
    pr = generate_partial_run(pick, load_initial("pick.east", pick), [Element.named("p")])
    betas += [*pr.recorded.values(), *parse_certificate(format_certificate(pr), pick).recorded.values()]
    assert len(betas) == 6 and all(type(beta) is UpdateSet for beta in betas)


def test_an_update_set_is_its_updates_in_any_order():
    a, b = Element.named("a"), Element.named("b")
    listed = [Update(Location("f", (a,)), b), StaticMirror(Location("f", (a,)), b), Update(Location("g"), a)]
    forward, backward = UpdateSet(listed), UpdateSet(reversed(listed))
    assert forward == backward and hash(forward) == hash(backward)
    assert repr(forward) == repr(backward) == "{f(a) := b, ~f(a) := b, g := a}"


def test_scalars_of_other_types_encode_as_json_dumps_does():
    line = (
        '{"choice": "x", "consistent": 1, "family": 2.5, "fired": 1,'
        ' "oracle": [], "step": -0.0, "updates": []}'
    )
    record = record_from_json(line)
    assert record_to_json(record) == recordoracle.record_to_json(record) == line


TWINS = """\
from ealgebra import (
    Element, FunctionName, Location, State, StaticMirror, StepRecord, Update,
    UpdateSet, format_certificate, make_vocabulary,
)
from ealgebra.distributed import PartialRun
from ealgebra.runner import record_to_json

a, b = Element.named("a"), Element.named("b")
loc = Location("f", (a,))
beta = UpdateSet([Update(loc, b), StaticMirror(loc, b)])
print(beta.sorted_updates())
print(record_to_json(StepRecord(1, beta, True, None, None, ())))
state = State(make_vocabulary([FunctionName("f", 1, is_static=True)]), {})
print(format_certificate(PartialRun(("m1",), {"m1": a}, frozenset(), {frozenset(): state}, {"m1": beta})))
"""


def test_a_plain_update_sorts_before_its_mirror_under_every_hash_seed():
    src = str(GOLDEN.parent.parent / "src")
    outputs = set()
    for seed in "0123":
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        outputs.add(subprocess.run(
            [sys.executable, "-c", TWINS], capture_output=True, text=True, env=env,
            timeout=60, check=True,
        ).stdout)
    assert outputs == {
        "[f(a) := b, ~f(a) := b]\n"
        '{"consistent": true, "fired": true, "oracle": [], "step": 1, "updates": ['
        '{"args": ["n:a"], "f": "f", "value": "n:b"}, '
        '{"args": ["n:a"], "f": "f", "mirror": true, "value": "n:b"}]}\n'
        "move m1 by a\nupdates m1: f(a) := b, ~f(a) := b\nsigma:\nendsigma\n\n"
    }
