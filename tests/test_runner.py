import gc
import re

import pytest

from ealgebra import (
    ContractViolation,
    EalgebraError,
    Element,
    FixedChooser,
    Location,
    ModeError,
    Oracle,
    OracleError,
    ParseError,
    ScriptedOracle,
    SeededChooser,
    State,
    UNDEF,
    VocabularyError,
    enumerate_reachable,
    parse_guard_text,
    parse_program,
    parse_state,
    render_trace,
    replay_record,
    run,
    step,
)
from ealgebra.runner import record_from_json, record_to_json
from ealgebra.syntax import App, Atom, BoolGuard, QuantGuard, Var

from conftest import load_initial, load_program

HELLO, WORLD = Element.named("hello"), Element.named("world")


@pytest.fixture(scope="module")
def echo():
    return load_program("echo.ea")


@pytest.fixture(scope="module")
def echo_state(echo):
    return load_initial("echo.east", echo)


@pytest.fixture(scope="module")
def echo_oracle(echo):
    from conftest import PROGRAMS

    return ScriptedOracle.load(PROGRAMS / "echo.oracle", echo.vocabulary)


def test_pure_deterministic_step_equals_firing_updates(tree_program, tree_state):
    from ealgebra import prepare_rule, updates

    rule = prepare_rule(tree_program)
    beta = updates(rule, tree_state)
    fired, _ = tree_state.fire_update_set(beta)
    stepped, record = step(tree_program, tree_state)
    assert stepped == fired
    assert record.updates == beta and record.oracle_qa == ()


def test_oracle_is_consistent_within_a_step(echo, echo_state, echo_oracle):
    # the guard and the assignment both read input(count): one query
    state, record = step(echo, echo_state, echo_oracle)
    assert len(record.oracle_qa) == 1
    assert record.oracle_qa[0][2] == HELLO
    assert state.read(Location("last")) == HELLO


def test_oracle_answers_may_differ_across_steps(echo, echo_state, echo_oracle):
    trace = run(echo, echo_state, echo_oracle, max_steps=5)
    assert trace.states[1].read(Location("last")) == HELLO
    assert trace.states[2].read(Location("last")) == WORLD
    # from step 3 on the script answers undef, so the state stays put; the
    # run is not a fixpoint because the oracle may answer again later
    assert trace.stop_reason == "max-steps"
    assert trace.states[3] == trace.states[2]


def test_external_values_never_enter_the_tables(echo, echo_state, echo_oracle):
    trace = run(echo, echo_state, echo_oracle, max_steps=3)
    for state in trace.states:
        for fname, _, _ in state.stored_items():
            assert fname != "input"


def test_step_record_round_trips_and_replays(echo, echo_state, echo_oracle):
    state, record = step(echo, echo_state, echo_oracle)
    again = record_from_json(record_to_json(record))
    assert again.updates == record.updates
    assert replay_record(echo_state, again) == state


def test_skip_program_fixpoints_immediately():
    prog = load_program("skip.ea")
    initial = load_initial("empty.east", prog)
    trace = run(prog, initial, max_steps=10)
    assert trace.stop_reason == "fixpoint"
    assert len(trace.records) == 1
    assert trace.states == [initial, initial]


def test_tree_walk_visits_child_then_sibling_then_parent(tree_program):
    initial = load_initial("tree3_loop.east", tree_program)
    trace = run(tree_program, initial, max_steps=4)
    cursor = [s.read(Location("c")) for s in trace.states]
    names = [e.value for e in cursor]
    assert names == ["n0", "n1", "n2", "n0", "n1"]
    assert trace.stop_reason == "max-steps"


def test_tree_walk_stops_at_fixpoint(tree_program, tree_state):
    trace = run(tree_program, tree_state, max_steps=10)
    assert trace.stop_reason == "fixpoint"
    assert trace.final_state.read(Location("c")) == Element.named("n2")


def test_seeded_runs_replay_identically(choosedemo, choosedemo_state):
    one = run(choosedemo, choosedemo_state, chooser=SeededChooser(9), max_steps=5)
    two = run(choosedemo, choosedemo_state, chooser=SeededChooser(9), max_steps=5)
    assert one.states == two.states
    assert render_trace(one, "records") == render_trace(two, "records")


def test_pure_run_is_a_function_of_program_and_state(tree_program, tree_state):
    t1 = run(tree_program, tree_state, max_steps=10)
    t2 = run(tree_program, tree_state, max_steps=10)
    assert t1.states == t2.states


def test_reserve_proviso_holds_along_traces():
    for program_name, state_name in (
        ("grow.ea", "grow.east"),
        ("extendnodes.ea", "extendnodes.east"),
        ("parallelgrow.ea", "parallelgrow4.east"),
        ("dupdemo.ea", "dupdemo.east"),
    ):
        prog = load_program(program_name)
        initial = load_initial(state_name, prog)
        trace = run(prog, initial, chooser=SeededChooser(0), max_steps=3)
        for state in trace.states:
            assert state.audit_proviso() == []


def test_fixpoint_states_stay_fixed(tree_program, tree_state):
    trace = run(tree_program, tree_state, max_steps=10)
    fixed = trace.final_state
    again, record = step(tree_program, fixed)
    assert again == fixed and record.fixpoint


def test_enumerate_deterministic_program_is_the_run_prefix(tree_program, tree_state):
    report = enumerate_reachable(tree_program, tree_state, depth=10)
    trace = run(tree_program, tree_state, max_steps=10)
    assert {s for s, _ in report.states} == set(trace.states)
    assert not report.partial and not report.violations


def test_enumerate_choose_demo_depth_one(choosedemo, choosedemo_state):
    report = enumerate_reachable(choosedemo, choosedemo_state, depth=1)
    by_depth = {}
    for _, level in report.states:
        by_depth[level] = by_depth.get(level, 0) + 1
    assert by_depth == {0: 1, 1: 2}


def test_enumerate_budget_flagging(philosophers4, ring4):
    report = enumerate_reachable(philosophers4, ring4, depth=8, budget=3)
    assert report.partial


def test_enumerate_violation_witness(philosophers, ring3):
    safety = parse_guard_text("not (exists i in P) Mode(i) = eat", philosophers.vocabulary)
    report = enumerate_reachable(philosophers, ring3, depth=2, predicate=safety)
    assert report.violations
    witness = report.violations[0]
    assert len(witness.moves) == 1  # one move into an eating state


def test_enumerate_refuses_a_predicate_given_as_text(philosophers, ring3):
    with pytest.raises(ContractViolation, match="parse_guard_text"):
        enumerate_reachable(philosophers, ring3, 1, predicate="(forall x in P) true")


ENTRIES = {
    "run": lambda target, initial: run(target, initial),
    "enumerate_reachable": lambda target, initial: enumerate_reachable(target, initial, 1),
}
CLAIMS_MODE = parse_program("vocabulary:\n  dynamic Mode/0\nconstants think\nprogram:\n  Mode := think\n")


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("target,initial,error,message", [
    # ring3 interprets Mode as a unary function
    (CLAIMS_MODE, "ring3", VocabularyError, "state does not interpret Mode as the program declares"),
    (CLAIMS_MODE, None, ContractViolation, "{entry} takes a State, not NoneType"),
    ("Mode := think", "ring3", ContractViolation,
     "{entry} takes a Program or a DistributedSpec, not str"),
])
def test_run_and_enumerate_check_their_inputs(request, entry, target, initial, error, message):
    initial = initial and request.getfixturevalue(initial)
    with pytest.raises(error, match=f"^{re.escape(message.format(entry=entry))}$"):
        ENTRIES[entry](target, initial)


def test_enumerate_refuses_a_malformed_predicate_before_evaluating_it(philosophers, ring3):
    # Mode(x) is not Boolean, so the quantifier raises at its first element;
    # compiling the whole predicate refuses the malformed connective first.
    raises = QuantGuard("forall", "x", "P", Atom(App("Mode", (Var("x"),))))
    malformed = BoolGuard("xor", (Atom(App("true")), Atom(App("true"))))
    with pytest.raises(TypeError, match="malformed guard"):
        enumerate_reachable(philosophers, ring3, 1, predicate=BoolGuard("and", (raises, malformed)))


def test_trace_rendering_is_deterministic(philosophers, ring3):
    from ealgebra import sequential_run

    schedule = [Element.integer(0), Element.integer(0)]
    t1 = sequential_run(philosophers, ring3, schedule)
    t2 = sequential_run(philosophers, ring3, schedule)
    for fmt in ("text", "records"):
        assert render_trace(t1, fmt) == render_trace(t2, fmt)
    text = render_trace(t1, "text")
    assert "Fork(0) := up" in text and "stop schedule-end" in text


TREE_RULE = """\
vocabulary:
  relation Node/1
  dynamic Parent/1
program:
  choose p in Node
    import v
      Node(v) := true
      Parent(v) := p
    endimport
  endchoose
"""


def test_tree_growth_counts_rooted_trees_to_depth_8():
    # States n steps deep are the rooted trees with n + 1 nodes up to
    # renaming of the imported ones: OEIS A000081.
    from ealgebra import parse_state

    program = parse_program(TREE_RULE)
    initial = parse_state("Node(root) = true\n", program.vocabulary)
    report = enumerate_reachable(program, initial, depth=8)
    by_depth = [0] * 9
    for _, level in report.states:
        by_depth[level] += 1
    assert by_depth == [1, 1, 2, 4, 9, 20, 48, 115, 286]
    assert not report.partial


def test_run_without_chooser_matches_seed_zero(choosedemo, choosedemo_state, capsys):
    from ealgebra.cli import main

    from conftest import PROGRAMS

    trace = run(choosedemo, choosedemo_state, max_steps=3)
    assert main([
        "run", str(PROGRAMS / "choosedemo.ea"), "--state", str(PROGRAMS / "choosedemo.east"),
        "--steps", "3", "--format", "records",
    ]) == 0
    header = {"program": "choosedemo.ea", "state": "choosedemo.east", "seed": 0, "steps": 3}
    assert capsys.readouterr().out == render_trace(trace, fmt="records", header=header)


def test_step_without_chooser_matches_seed_zero(choosedemo, choosedemo_state):
    plain = step(choosedemo, choosedemo_state)
    assert plain == step(choosedemo, choosedemo_state, chooser=SeededChooser(0))
    assert plain[1].family_size == 2


def test_a_step_records_conflicts_only_when_its_set_does_not_fire():
    from ealgebra import parse_state

    program = parse_program(
        "vocabulary:\n  dynamic x/0, y/0\nconstants a, b\nprogram:\n"
        "  if x = undef then x := a, x := b, y := a else y := b endif\n"
    )
    a, b = Element.named("a"), Element.named("b")
    start = parse_state("", program.vocabulary, constants=program.constants)
    after, record = step(program, start)
    assert after is start and not record.fired and not record.consistent
    assert record.conflicts == {Location("x"): frozenset({a, b})}
    fixed = parse_state("x = a\n", program.vocabulary, constants=program.constants)
    after, record = step(program, fixed)
    assert record.fired and record.consistent and record.conflicts == {}
    assert after.read(Location("y")) == b


@pytest.mark.parametrize("line, message", [
    ("{}", "bad step record: KeyError: 'step'"),
    ("not json", "bad step record: JSONDecodeError: Expecting value"),
    ('{"step": 1, "updates": [], "consistent": true, "fired": true, "agent": 3}',
     "bad step record: AttributeError: 'int' object has no attribute"),
    ('{"step": 1, "updates": [{"f": "X", "args": [], "value": "q:1"}],'
     ' "consistent": true, "fired": true}', "bad element encoding: q:1"),
    ('{"step": 1, "updates": [{"f": 3, "args": [], "value": "i:1"}],'
     ' "consistent": true, "fired": true}', "function name 3 is not a string"),
    ('{"step": 1, "updates": [], "consistent": false, "fired": true}',
     "bad step record: consistent False is not fired True"),
    ('{"step": 1, "updates": [{"f": "X", "args": [], "value": "l:maybe"}],'
     ' "consistent": true, "fired": true}', "bad element encoding: l:maybe"),
    ('{"step": 1, "updates": [{"f": "X", "args": ["r:-3"], "value": "l:true"}],'
     ' "consistent": true, "fired": true}', "bad element encoding: r:-3"),
    ('{"step": 1, "updates": [], "oracle": [["e", [], "i:\u0663"]],'
     ' "consistent": true, "fired": true}', "bad element encoding: i:\u0663"),
])
def test_malformed_step_records_raise_parse_error(line, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        record_from_json(line)


def test_run_and_step_refuse_a_distributed_spec(philosophers, ring3):
    for call in (run, step):
        with pytest.raises(ModeError, match="sequential_run"):
            call(philosophers, ring3)


def test_every_record_of_a_run_to_its_fixpoint_decodes_to_itself(tree_program, tree_state):
    trace = run(tree_program, tree_state, max_steps=10)
    assert trace.stop_reason == "fixpoint" and trace.records[-1].fixpoint
    for record in trace.records:
        assert record_from_json(record_to_json(record)) == record


def test_a_run_keeps_its_initial_and_final_states_only():
    program = parse_program("vocabulary:\n  dynamic c/0\npragma integers\nprogram:\n  c := c + 1\n")
    gc.collect()
    before = sum(isinstance(o, State) for o in gc.get_objects())
    trace = run(program, parse_state("c = 0\n", program.vocabulary), max_steps=500)
    gc.collect()
    assert sum(isinstance(o, State) for o in gc.get_objects()) - before == 2
    assert trace.final_state.read(Location("c")) == Element.integer(500)
    assert trace.states[0] is trace.initial and trace.states[-1] == trace.final_state


def test_a_fixed_chooser_refuses_choices_out_of_range_and_past_its_end():
    chooser = FixedChooser([0, 5])
    assert chooser.choose(2) == 0
    for message in ("recorded choice 5 out of range 2", "fixed chooser exhausted"):
        with pytest.raises(EalgebraError) as caught:
            chooser.choose(2)
        assert type(caught.value) is EalgebraError and str(caught.value) == message


def test_an_oracle_answer_that_is_no_element_is_refused():
    class Careless(Oracle):
        def resolve(self, fname, args, step_index):
            return "hello"

    program = parse_program("vocabulary:\n  dynamic g/0\n  external e/0\nprogram:\n  g := e\n")
    with pytest.raises(OracleError) as caught:
        step(program, State(program.vocabulary), Careless())
    assert type(caught.value) is OracleError and str(caught.value) == "e: oracle returned a non-element"


def test_an_oracle_answer_still_in_the_reserve_is_refused(echo, echo_state):
    # Only import and duplicate take an element out of the reserve: an
    # answer @7 at a state whose reserve starts at @0 would output a
    # reserve element, and a later import could hand it out again.
    oracle = ScriptedOracle.parse("step 1: input(0) = @7\n", echo.vocabulary)
    with pytest.raises(OracleError) as caught:
        run(echo, echo_state, oracle, max_steps=1)
    assert type(caught.value) is OracleError
    assert str(caught.value) == "input: oracle returned @7, still in the reserve"
    # An element the state holds, which left the reserve, is an answer.
    taken = State(echo_state.vocabulary, {
        "count": {(): Element.integer(0)}, "last": {(): Element.reserve(7)},
    })
    _, record = step(echo, taken, oracle)
    assert record.oracle_qa == (("input", (Element.integer(0),), Element.reserve(7)),)
