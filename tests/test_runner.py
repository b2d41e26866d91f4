import pytest

from ealgebra import (
    Element,
    Location,
    ScriptedOracle,
    SeededChooser,
    UNDEF,
    enumerate_reachable,
    parse_program,
    render_trace,
    replay_record,
    run,
    step,
)
from ealgebra.runner import record_from_json, record_to_json

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
    report = enumerate_reachable(
        philosophers, ring3, depth=2, predicate="not (exists i in P) Mode(i) = eat"
    )
    assert report.violations
    witness = report.violations[0]
    assert len(witness.moves) == 1  # one move into an eating state


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
