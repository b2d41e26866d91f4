import pytest

from ealgebra import (
    CertificateError,
    Element,
    FunctionName,
    Location,
    ModeError,
    ScheduleError,
    ScriptedOracle,
    SeededChooser,
    State,
    StateValidityError,
    StaticMirror,
    TRUE,
    UNDEF,
    UpdateSet,
    Update,
    agent_move,
    agents_of,
    check_partial_run,
    corollary1_holds,
    corollary2_agrees,
    format_certificate,
    generate_partial_run,
    linearizations,
    parse_certificate,
    parse_guard_text,
    parse_program,
    parse_state,
    sequential_run,
    validate_spec_state,
)
from ealgebra.distributed import Agent, PartialRun, Verdict, segment_states
from ealgebra.syntax import Value

from conftest import PROGRAMS, load_initial, load_program
from firing import fire_one
from quasioracle import quasi_move_updates, quasi_sequential_step
from segmentoracle import with_every_sigma

I = Element.integer
E = Element.named
UP, DOWN, THINK, EAT = E("up"), E("down"), E("think"), E("eat")


def mode(state, i):
    return state.read(Location("Mode", (I(i),)))


def fork(state, i):
    return state.read(Location("Fork", (I(i),)))


# ---------------------------------------------------------------------------
# Agents


def test_agents_of_philosophers(philosophers, ring3):
    agents = agents_of(philosophers, ring3)
    assert [a.element for a in agents] == [I(0), I(1), I(2)]
    assert all(a.module == "Phil" for a in agents)
    assert all(a.program is philosophers.modules["Phil"] for a in agents)


@pytest.mark.parametrize("call", [
    lambda program, state: validate_spec_state(program, state),
    lambda program, state: sequential_run(program, state, max_steps=1),
    lambda program, state: agents_of(program, state),
    lambda program, state: agent_move(program, state, I(0)),
    lambda program, state: generate_partial_run(program, state, [I(0)]),
    lambda program, state: check_partial_run(
        program, PartialRun((), {}, frozenset(), {frozenset(): state})
    ),
    lambda program, state: linearizations(
        program, PartialRun(("m1",), {"m1": I(0)}, frozenset(), {frozenset(): state})
    ),
])
def test_a_single_agent_program_is_no_distributed_spec(tree_program, ring3, call):
    with pytest.raises(ModeError, match="single-agent program"):
        call(tree_program, ring3)


def test_agents_of_empty_mod_table(philosophers):
    state = parse_state(
        "Fork(0) = down", philosophers.vocabulary, constants=philosophers.constants
    )
    assert agents_of(philosophers, state) == []


def test_team_state_agents(sendrecv, sendrecv_state):
    agents = agents_of(sendrecv, sendrecv_state)
    assert {a.element.value: a.module for a in agents} == {
        "t1": "Team", "s": "Sender", "r": "Receiver",
    }


def test_module_name_collision_is_rejected(sendrecv, sendrecv_state):
    tampered, fired = sendrecv_state.fire_update_set(
        UpdateSet([StaticMirror(Location("Team"), sendrecv_state.read(Location("Sender")))])
    )
    assert fired
    with pytest.raises(StateValidityError):
        validate_spec_state(sendrecv, tampered)


# ---------------------------------------------------------------------------
# Moves


def test_philosopher_picks_up_both_forks(philosophers, ring3):
    state, record = agent_move(philosophers, ring3, I(0))
    assert mode(state, 0) == EAT
    assert fork(state, 0) == UP and fork(state, 1) == UP
    assert fork(state, 2) == DOWN and mode(state, 1) == THINK
    assert len(record.updates) == 3


def test_blocked_philosopher_does_nothing(philosophers, ring3):
    eating, _ = agent_move(philosophers, ring3, I(0))
    after, record = agent_move(philosophers, eating, I(1))
    assert record.updates == UpdateSet()
    assert after == eating


def test_team_rule_moves_the_value(sendrecv, sendrecv_state):
    s = sendrecv_state
    s, _ = agent_move(sendrecv, s, E("s"))
    s, _ = agent_move(sendrecv, s, E("r"))
    s, record = agent_move(sendrecv, s, E("t1"))
    assert record.updates == UpdateSet([Update(Location("In", (E("r"),)), E("payload"))])
    assert s.read(Location("In", (E("r"),))) == E("payload")


def test_team_does_nothing_until_both_ready(sendrecv, sendrecv_state):
    s, record = agent_move(sendrecv, sendrecv_state, E("t1"))
    assert record.updates == UpdateSet() and s == sendrecv_state


def test_agent_creation_through_import():
    spec = parse_program(
        "vocabulary:\n"
        "  dynamic Mod/1, Kick/0\n"
        "constants on\n"
        "module Spawner:\n"
        "  if Kick = undef then\n"
        "    import v\n"
        "      Mod(v) := Spawner\n"
        "    endimport\n"
        "    Kick := on\n"
        "  endif\n"
    )
    initial = parse_state("Mod(boss) = Spawner", spec.vocabulary, constants=spec.constants)
    state, _ = agent_move(spec, initial, E("boss"))
    agents = agents_of(spec, state)
    assert len(agents) == 2
    validate_spec_state(spec, state)
    assert state.audit_proviso() == []


# ---------------------------------------------------------------------------
# Sequential and quasi-sequential runs


def test_schedule_p0_twice_returns_to_start(philosophers, ring3):
    trace = sequential_run(philosophers, ring3, [I(0), I(0)])
    assert mode(trace.states[1], 0) == EAT
    assert trace.final_state == ring3
    assert [r.agent for r in trace.records] == [I(0), I(0)]


def test_empty_schedule_is_the_initial_state_alone(philosophers, ring3):
    trace = sequential_run(philosophers, ring3, [])
    assert trace.states == [ring3]


def test_blocked_stage_leaves_the_state_unchanged(philosophers, ring3):
    trace = sequential_run(philosophers, ring3, [I(0), I(1)])
    assert trace.states[2] == trace.states[1]


def test_schedule_of_a_non_agent_fails(philosophers, ring3):
    with pytest.raises(ScheduleError):
        sequential_run(philosophers, ring3, [I(0), Element.named("ghost")])


def test_quasi_sequential_disjoint_agents(philosophers4, ring4):
    state = quasi_sequential_step(philosophers4, ring4, [I(0), I(2)])
    assert mode(state, 0) == EAT and mode(state, 2) == EAT
    assert all(fork(state, i) == UP for i in range(4))


def test_quasi_sequential_shared_fork_union_is_consistent(philosophers4, ring4):
    union = quasi_move_updates(philosophers4, ring4, [I(0), I(1)])
    assert not union.conflicts()  # Fork(1) := up appears twice with one value
    state = quasi_sequential_step(philosophers4, ring4, [I(0), I(1)])
    assert mode(state, 0) == EAT and mode(state, 1) == EAT


def test_quasi_sequential_singleton_equals_agent_move(philosophers, ring3):
    via_quasi = quasi_sequential_step(philosophers, ring3, [I(0)])
    via_move, _ = agent_move(philosophers, ring3, I(0))
    assert via_quasi == via_move


def test_quasi_sequential_rejects_nondeterministic_agents():
    spec = parse_program(
        "vocabulary:\n"
        "  dynamic Mod/1, f/0\n"
        "  static relation U/1\n"
        "constants a, b\n"
        "module Picker:\n"
        "  choose v in U\n    f := v\n  endchoose\n"
    )
    state = parse_state(
        "Mod(p) = Picker\nU(a) = true\nU(b) = true",
        spec.vocabulary,
        constants=spec.constants,
    )
    with pytest.raises(ModeError):
        quasi_sequential_step(spec, state, [E("p")])


@pytest.fixture(scope="module")
def pick():
    return load_program("pick.ea")


@pytest.fixture(scope="module")
def pick_state(pick):
    return load_initial("pick_empty.east", pick)


def test_choose_moves_record_family_and_choice(pick, pick_state):
    trace = sequential_run(pick, pick_state, [E("p"), E("e")], chooser=SeededChooser(3))
    picked, empty = trace.records
    assert picked.family_size == 3 and picked.choice_index in (0, 1, 2)
    assert picked.consistent and picked.fired
    # an agent whose family is empty does not move, like an empty-family step
    assert (empty.family_size, empty.choice_index) == (0, None)
    assert not empty.consistent and not empty.fired
    assert trace.states[2] == trace.states[1]


MIXED = """\
vocabulary:
  dynamic f/1, g/0
  static relation U/1
constants a, b, c
module Picker:
  choose v in U
    f(Self) := v
  endchoose
module Empty:
  choose v in U satisfying v = c
    f(Self) := v
  endchoose
module Clash:
  g := a, g := b
"""


def test_the_states_of_a_run_are_those_of_its_moves_one_at_a_time():
    spec = parse_program(MIXED)
    state = parse_state(
        "Mod(p) = Picker\nMod(e) = Empty\nMod(k) = Clash\nU(a) = true\nU(b) = true",
        spec.vocabulary, constants=spec.constants,
    )
    schedule = [E("p"), E("e"), E("k"), E("p")]
    trace = sequential_run(spec, state, schedule, chooser=SeededChooser(5))
    # a choice, an empty family "(no move)", an inconsistent set, a choice
    assert [(r.family_size, r.fired) for r in trace.records] == [
        (2, True), (0, False), (None, False), (2, True),
    ]
    chooser, stepped = SeededChooser(5), [state]
    for index, element in enumerate(schedule, start=1):
        stepped.append(agent_move(spec, stepped[-1], element, chooser, index=index)[0])
    assert trace.states == stepped and trace.final_state == stepped[-1]


def test_sequential_run_without_a_schedule_draws_agents(pick, pick_state):
    trace = sequential_run(pick, pick_state, chooser=SeededChooser(3), max_steps=6)
    assert len(trace.records) == 6
    assert {r.agent for r in trace.records} <= {E("p"), E("e")}
    with pytest.raises(ScheduleError):
        sequential_run(pick, pick_state)


def test_no_chooser_means_seed_zero(pick, pick_state):
    s = pick_state
    schedule = [E("p"), E("e"), E("p"), E("p")]
    assert agent_move(pick, s, E("p")) == agent_move(pick, s, E("p"), SeededChooser(0))
    plain = sequential_run(pick, s, schedule)
    seeded = sequential_run(pick, s, schedule, chooser=SeededChooser(0))
    assert plain.records == seeded.records and plain.states == seeded.states
    plain = generate_partial_run(pick, s, schedule)
    seeded = generate_partial_run(pick, s, schedule, chooser=SeededChooser(0))
    assert plain.recorded == seeded.recorded and plain.states == seeded.states


# ---------------------------------------------------------------------------
# Partially ordered runs


def antichain_run(philosophers4, ring4):
    return generate_partial_run(philosophers4, ring4, [I(0), I(2)])


def test_independent_moves_form_an_antichain(philosophers4, ring4):
    pr = antichain_run(philosophers4, ring4)
    assert pr.edges == frozenset()
    verdict = check_partial_run(philosophers4, pr, initial_state=ring4)
    assert verdict.valid, verdict.message


def test_corrupted_sigma_entry_names_coherence(philosophers4, ring4):
    pr = with_every_sigma(philosophers4, antichain_run(philosophers4, ring4))
    full = frozenset(pr.moves)
    bad = fire_one(pr.states[full], Update(Location("Mode", (I(3),)), EAT))
    assert bad != pr.states[full]
    states = dict(pr.states)
    states[full] = bad
    broken = PartialRun(pr.moves, pr.agent_of, pr.edges, states, pr.recorded)
    verdict = check_partial_run(philosophers4, broken)
    assert not verdict.valid and verdict.condition == "4"


def test_incomparable_moves_of_one_agent_violate_condition_two(philosophers4, ring4):
    pr = generate_partial_run(philosophers4, ring4, [I(0), I(0)])
    assert ("m1", "m2") in pr.edges
    broken = PartialRun(
        pr.moves, pr.agent_of, pr.edges - {("m1", "m2")}, pr.states, pr.recorded
    )
    verdict = check_partial_run(philosophers4, broken)
    assert not verdict.valid and verdict.condition == "2"


def test_cyclic_order_violates_condition_one(philosophers4, ring4):
    pr = antichain_run(philosophers4, ring4)
    broken = PartialRun(
        pr.moves,
        pr.agent_of,
        frozenset({("m1", "m2"), ("m2", "m1")}),
        pr.states,
        pr.recorded,
    )
    verdict = check_partial_run(philosophers4, broken)
    assert not verdict.valid and verdict.condition == "1"


def test_wrong_initial_state_violates_condition_three(philosophers4, ring4):
    pr = antichain_run(philosophers4, ring4)
    tampered, _ = ring4.fire_update_set(
        UpdateSet([Update(Location("Mode", (I(3),)), EAT)])
    )
    states = dict(pr.states)
    states[frozenset()] = tampered
    broken = PartialRun(pr.moves, pr.agent_of, pr.edges, states, pr.recorded)
    verdict = check_partial_run(philosophers4, broken, initial_state=ring4)
    assert not verdict.valid and verdict.condition == "3"


def test_a_check_validates_its_base_state_once(philosophers4, ring4, monkeypatch):
    # Every segment state is fired from the base, and module names are
    # static, so the base's module-element map serves every move.
    from ealgebra import distributed

    pr = generate_partial_run(philosophers4, ring4, [I(0), I(2), I(0), I(2), I(1)])
    calls = []
    original = distributed.validate_spec_state

    def counting(spec, state):
        calls.append(state)
        return original(spec, state)

    monkeypatch.setattr(distributed, "validate_spec_state", counting)
    assert check_partial_run(philosophers4, pr, initial_state=ring4).valid
    assert calls == [ring4]
    calls.clear()
    segment_states(philosophers4, pr)
    assert calls == [ring4]
    calls.clear()
    assert len(linearizations(philosophers4, pr).traces) > 1
    assert calls == [ring4]


def test_a_scheduled_run_validates_its_initial_state_once(philosophers4, ring4, monkeypatch):
    # Agents are resolved through the initial state's module-element map.
    from ealgebra import distributed

    calls = []
    original = distributed.validate_spec_state

    def counting(spec, state):
        calls.append(state)
        return original(spec, state)

    monkeypatch.setattr(distributed, "validate_spec_state", counting)
    schedule = [I(0), I(2), I(0), I(2), I(1)] * 4
    assert len(sequential_run(philosophers4, ring4, schedule).records) == 20
    assert calls == [ring4]
    calls.clear()
    assert len(generate_partial_run(philosophers4, ring4, schedule).moves) == 20
    assert calls == [ring4]


def test_a_scheduled_element_that_is_no_agent_is_refused(philosophers4, ring4):
    for call in (sequential_run, generate_partial_run):
        with pytest.raises(ScheduleError, match="^7 is not an agent here$"):
            call(philosophers4, ring4, [I(0), I(7)])


def test_linearizations_of_an_antichain(philosophers4, ring4):
    pr = generate_partial_run(philosophers4, ring4, [I(0), I(2)])
    report = linearizations(philosophers4, pr)
    assert len(report.traces) == 2  # 2! orders
    assert corollary1_holds(report)


def test_linearizations_of_a_chain(philosophers4, ring4):
    pr = generate_partial_run(philosophers4, ring4, [I(0), I(0), I(0)])
    report = linearizations(philosophers4, pr)
    assert len(report.traces) == 1


def test_the_states_of_a_linearization_are_its_moves_fired_in_order(philosophers4, ring4):
    pr = generate_partial_run(philosophers4, ring4, [I(0), I(2), I(0)])
    for trace in linearizations(philosophers4, pr).traces:
        stepped = [ring4]
        for record in trace.records:
            stepped.append(agent_move(philosophers4, stepped[-1], record.agent)[0])
        assert trace.states == stepped and trace.final_state == stepped[-1]


def test_the_initial_state_stands_in_for_a_missing_empty_sigma(philosophers, ring3):
    pr = parse_certificate("move m1 by 0\n", philosophers)
    assert check_partial_run(philosophers, pr, initial_state=ring3).valid
    assert pr.states == {}


def test_three_move_poset_with_one_edge(philosophers4, ring4):
    # m1 (phil 0 eats) < m2 (phil 0 stops eating); m3 (phil 2) independent
    pr = generate_partial_run(philosophers4, ring4, [I(0), I(0), I(2)])
    assert ("m1", "m2") in pr.edges
    assert not any(e in pr.edges for e in (("m1", "m3"), ("m2", "m3"), ("m3", "m2")))
    report = linearizations(philosophers4, pr)
    assert len(report.traces) == 3
    assert corollary1_holds(report)


def test_linearizations_of_every_segment_share_finals(philosophers4, ring4):
    pr = generate_partial_run(philosophers4, ring4, [I(0), I(2), I(0), I(2)])
    sigma = segment_states(philosophers4, pr)
    for segment in sigma:
        report = linearizations(philosophers4, pr, segment)
        assert corollary1_holds(report)
        if report.traces:
            assert report.traces[0].final_state == sigma[segment]


def test_corollary_two_on_generated_runs(philosophers4, ring4):
    pr = generate_partial_run(philosophers4, ring4, [I(0), I(2), I(0)])
    safety = parse_guard_text(
        "not (exists i in P) (Mode(i) = eat and Mode(i + 1) = eat)",
        philosophers4.vocabulary,
    )
    some_eat = parse_guard_text("(exists i in P) Mode(i) = eat", philosophers4.vocabulary)
    assert corollary2_agrees(philosophers4, pr, safety)
    assert corollary2_agrees(philosophers4, pr, some_eat)


def test_certificate_round_trip(philosophers4, ring4):
    pr = with_every_sigma(
        philosophers4, generate_partial_run(philosophers4, ring4, [I(0), I(2), I(1)])
    )
    text = format_certificate(pr)
    again = parse_certificate(text, philosophers4)
    assert again.moves == pr.moves
    assert again.agent_of == dict(pr.agent_of)
    assert again.edges == pr.edges
    assert dict(again.recorded) == dict(pr.recorded)
    assert dict(again.states) == dict(pr.states)
    verdict = check_partial_run(philosophers4, again, initial_state=ring4)
    assert verdict.valid


def test_partial_runs_over_the_team_spec(sendrecv, sendrecv_state):
    s, r, t1 = E("s"), E("r"), E("t1")
    pr = generate_partial_run(sendrecv, sendrecv_state, [s, r, t1])
    verdict = check_partial_run(sendrecv, pr, initial_state=sendrecv_state)
    assert verdict.valid, verdict.message
    # sender and receiver getting ready are independent; the team move waits
    assert ("m1", "m2") not in pr.edges and ("m2", "m1") not in pr.edges
    assert ("m1", "m3") in pr.edges and ("m2", "m3") in pr.edges
    report = linearizations(sendrecv, pr)
    assert len(report.traces) == 2
    assert corollary1_holds(report)


def test_certificate_lines_given_twice_are_refused(sendrecv, sendrecv_state):
    pr = generate_partial_run(sendrecv, sendrecv_state, [E("s"), E("r"), E("t1")])
    text = format_certificate(with_every_sigma(sendrecv, pr))
    true_line = "updates m1: Mode(s) := ready\n"
    wrong_line = "updates m1: Mode(s) := idle\n"
    # Alone, the wrong line is a condition-4 violation; placed before the
    # true one it is refused, not silently overridden.
    verdict = check_partial_run(sendrecv, parse_certificate(text.replace(true_line, wrong_line), sendrecv))
    assert not verdict.valid and verdict.condition == "4"
    with pytest.raises(CertificateError, match="second updates line for move m1"):
        parse_certificate(text.replace(true_line, wrong_line + true_line), sendrecv)
    block = text[text.index("sigma m1:\n"):text.index("sigma m2:\n")]
    with pytest.raises(CertificateError, match=r"second sigma of segment \{m1\}"):
        parse_certificate(text + block, sendrecv)
    initial = "initial from sendrecv.east\n"
    for doubled in (initial + text, text + initial):
        with pytest.raises(CertificateError, match=r"second sigma of segment \{\}"):
            parse_certificate(doubled, sendrecv, base_dir=str(PROGRAMS))
    first_sigma = text[text.index("sigma:\n"):text.index("sigma m1:\n")]
    by_reference = parse_certificate(text.replace(first_sigma, initial), sendrecv, base_dir=str(PROGRAMS))
    assert check_partial_run(sendrecv, by_reference).valid


@pytest.mark.parametrize("text, base_dir, message", [
    ("move m1 by 0\nmove m1 by 1\n", None, "move m1 declared twice"),
    ("initial from ring3.east\n", None, "initial-from needs a base directory"),
    ("initial from absent.east\n", str(PROGRAMS), "cannot read initial state: "),
    ("sigma:\n  Mode(0) = think\n", None, "sigma block missing endsigma"),
])
def test_malformed_certificates_are_refused(philosophers, text, base_dir, message):
    with pytest.raises(CertificateError) as caught:
        parse_certificate(text, philosophers, base_dir=base_dir)
    assert type(caught.value) is CertificateError and str(caught.value).startswith(message)


def test_a_sigma_of_unknown_moves_refutes_the_certificate(philosophers, ring3):
    pr = parse_certificate("move m1 by 0\nsigma m9:\nendsigma\n", philosophers)
    verdict = check_partial_run(philosophers, pr, initial_state=ring3)
    assert verdict == Verdict(False, "certificate", "sigma key names unknown moves")


def test_nondeterministic_moves_need_recorded_sets():
    spec = parse_program(
        "vocabulary:\n"
        "  dynamic Mod/1, f/0\n"
        "  static relation U/1\n"
        "constants a, b\n"
        "module Picker:\n"
        "  choose v in U\n    f := v\n  endchoose\n"
    )
    initial = parse_state(
        "Mod(p) = Picker\nU(a) = true\nU(b) = true",
        spec.vocabulary,
        constants=spec.constants,
    )
    pr = generate_partial_run(spec, initial, [E("p")], chooser=SeededChooser(3))
    verdict = check_partial_run(spec, pr, initial_state=initial)
    assert verdict.valid
    # strip the recorded set: the checker reports an incomplete certificate
    stripped = PartialRun(pr.moves, pr.agent_of, pr.edges, pr.states, None)
    verdict = check_partial_run(spec, stripped)
    assert not verdict.valid and verdict.condition == "certificate"
    # corrupt the recorded set: no longer a move of the agent
    bad = {"m1": UpdateSet([Update(Location("f"), E("c" ))])}
    broken = PartialRun(pr.moves, pr.agent_of, pr.edges, pr.states, bad)
    verdict = check_partial_run(spec, broken)
    assert not verdict.valid and verdict.condition == "4"


def test_active_notation_matches_hand_expansion():
    def build(body):
        return parse_program(
            "vocabulary:\n"
            "  dynamic Mod/1, Mod'/1, Done/1\n"
            "constants on\n"
            "pragma active\n"
            f"module Boss:\n{body}"
        )

    sugar = build(
        "  if Active(Self) and Done(Self) != on then\n"
        "    Done(Self) := on\n"
        "    Active(Self) := false\n"
        "  endif\n"
    )
    expanded = build(
        "  if Mod(Self) = Mod'(Self) and Done(Self) != on then\n"
        "    Done(Self) := on\n"
        "    if false then Mod(Self) := Mod'(Self) else Mod(Self) := undef endif\n"
        "  endif\n"
    )
    facts = "Mod(boss) = Boss\nMod'(boss) = Boss"
    s1 = parse_state(facts, sugar.vocabulary, constants=sugar.constants)
    s2 = parse_state(facts, expanded.vocabulary, constants=expanded.constants)
    t1 = sequential_run(sugar, s1, [E("boss")])
    t2 = sequential_run(expanded, s2, [E("boss")])
    assert [r.updates for r in t1.records] == [r.updates for r in t2.records]
    # after deactivation the element is no longer an agent
    assert agents_of(sugar, t1.final_state) == []


def test_generated_run_orders_a_move_after_its_agent_is_created():
    spec = parse_program(
        "vocabulary:\n"
        "  dynamic X/0\n"
        "constants a, b\n"
        "module A:\n"
        "  Mod(b) := B\n"
        "module B:\n"
        "  X := Self\n"
    )
    initial = parse_state("Mod(a) = A", spec.vocabulary, constants=spec.constants)
    pr = generate_partial_run(spec, initial, [E("a"), E("b")])
    assert pr.edges == frozenset({("m1", "m2")})
    assert check_partial_run(spec, pr, initial_state=initial).valid


def test_certificate_of_a_spec_with_external_functions_checks():
    # Certificates record no oracle answers, so checking reads externals as
    # undef, as a move without an oracle does when the run is generated.
    spec = parse_program(
        "vocabulary:\n"
        "  dynamic X/1\n"
        "  external e/0\n"
        "constants a\n"
        "module A:\n"
        "  X(Self) := e\n"
    )
    initial = parse_state("Mod(a) = A", spec.vocabulary, constants=spec.constants)
    pr = generate_partial_run(spec, initial, [E("a")])
    assert check_partial_run(spec, pr).valid
    after = segment_states(spec, pr)[frozenset({"m1"})]
    assert after.read(Location("X", (E("a"),))) == UNDEF
    report = linearizations(spec, pr)
    assert [trace.final_state for trace in report.traces] == [after]


def test_an_agent_reads_an_external_through_the_oracle_it_is_given():
    spec = parse_program(
        "vocabulary:\n"
        "  dynamic X/1\n"
        "  external e/1\n"
        "constants a, b\n"
        "module A:\n"
        "  X(Self) := e(Self)\n"
    )
    initial = parse_state("Mod(a) = A", spec.vocabulary, constants=spec.constants)
    oracle = ScriptedOracle.parse("step 2: e(a) = b\n", spec.vocabulary)
    after, record = agent_move(spec, initial, E("a"), oracle=oracle, index=2)
    assert record.oracle_qa == (("e", (E("a"),), E("b")),)
    assert after.read(Location("X", (E("a"),))) == E("b")


def test_moves_of_runs_and_certificates_build_no_agent_record(
    monkeypatch, philosophers, ring3,
):
    built = []

    def counting(self, *args, **kwargs):
        built.append(args)
        Value.__init__(self, *args, **kwargs)

    monkeypatch.setattr(Agent, "__init__", counting)
    schedule = [I(0), I(0), I(1)]
    sequential_run(philosophers, ring3, schedule)
    pr = generate_partial_run(philosophers, ring3, schedule)
    # A chain: no two moves are independent, so the segment scan decides.
    chain = pr._replace(edges=pr.edges | {("m1", "m2"), ("m2", "m3"), ("m1", "m3")})
    assert check_partial_run(philosophers, chain).valid
    assert built == []


def test_generated_run_orders_a_write_before_a_duplicate_that_scans_it():
    # The copy mirrors every fact that mentions a, so the duplicate reads
    # all of f's table, which Writer then changes.
    spec = parse_program(
        "vocabulary:\n"
        "  dynamic f/1, Tag/1\n"
        "constants a, b, mark\n"
        "module Dup:\n"
        "  duplicate a as v\n"
        "    Tag(v) := f(mark)\n"
        "  endduplicate\n"
        "module Writer:\n"
        "  f(a) := b\n"
    )
    initial = parse_state(
        "Mod(x) = Dup\nMod(y) = Writer\nf(a) = a", spec.vocabulary, constants=spec.constants
    )
    pr = generate_partial_run(spec, initial, [E("y"), E("x")])
    assert pr.edges == frozenset({("m1", "m2")})
    assert check_partial_run(spec, pr, initial_state=initial).valid


def test_duplicate_mirrors_only_the_tables_of_its_module():
    # Other is a table of the spec that Dup never names: the copy of a does
    # not mirror it, so Writer's write to Other is independent of the move.
    spec = parse_program(
        "vocabulary:\n"
        "  dynamic f/1, Tag/1, Other/1\n"
        "constants a, mark\n"
        "module Dup:\n"
        "  duplicate a as v\n"
        "    Tag(v) := f(mark)\n"
        "  endduplicate\n"
        "module Writer:\n"
        "  Other(a) := mark\n"
    )
    initial = parse_state(
        "Mod(x) = Dup\nMod(y) = Writer\nOther(a) = mark",
        spec.vocabulary, constants=spec.constants,
    )
    pr = generate_partial_run(spec, initial, [E("y"), E("x")])
    assert pr.edges == frozenset()
    assert all(u.location.fname != "Other" for u in pr.recorded["m2"])
    assert check_partial_run(spec, pr, initial_state=initial).valid


def test_binder_named_like_another_modules_function():
    # h is a function only B uses, so A may bind a variable of that name.
    spec = parse_program(
        "vocabulary:\n"
        "  dynamic g/1, h/0\n"
        "  static relation U/1\n"
        "constants u\n"
        "module A:\n"
        "  choose h in U\n"
        "    g(h) := h\n"
        "  endchoose\n"
        "module B:\n"
        "  h := B\n"
    )
    state = parse_state(
        "Mod(x) = A\nMod(y) = B\nU(u) = true", spec.vocabulary, constants=spec.constants
    )
    _, record = agent_move(spec, state, E("x"))
    assert record.updates == UpdateSet([Update(Location("g", (E("u"),)), E("u"))])


def _misdeclared(philosophers, declared, facts):
    from ealgebra import make_vocabulary

    vocab = philosophers.vocabulary
    names = [declared if fn.name == declared.name else fn for fn in vocab.user_names()]
    vocab = make_vocabulary(names, integers=vocab.integers, modulus=vocab.modulus)
    return parse_state(f"Mod(0) = Phil\n{facts}", vocab, constants=philosophers.constants)


@pytest.mark.parametrize(
    "declared, facts",
    [
        # Reading Fork(Me) at arity 2 would fail on its own.
        (FunctionName("Fork", 2), "Mode(0) = think"),
        # A static Mode reads fine: only the declaration check stops the
        # move before it writes Mode.
        (
            FunctionName("Mode", 1, is_static=True),
            "Mode(0) = think\nFork(0) = down\nFork(1) = down",
        ),
    ],
)
def test_state_must_interpret_module_names_as_declared(philosophers, declared, facts):
    from ealgebra import VocabularyError, enumerate_reachable

    state = _misdeclared(philosophers, declared, facts)
    pr = PartialRun(("m1",), {"m1": I(0)}, frozenset(), {frozenset(): state})
    with pytest.raises(VocabularyError):
        agent_move(philosophers, state, I(0))
    with pytest.raises(VocabularyError):
        enumerate_reachable(philosophers, state, 1)
    with pytest.raises(VocabularyError):
        check_partial_run(philosophers, pr)

    # An uninterpreted module name is found first.
    state = _misdeclared(philosophers, declared, facts + "\nPhil = undef")
    pr = PartialRun(("m1",), {"m1": I(0)}, frozenset(), {frozenset(): state})
    with pytest.raises(StateValidityError):
        agent_move(philosophers, state, I(0))
    with pytest.raises(StateValidityError):
        enumerate_reachable(philosophers, state, 1)
    assert check_partial_run(philosophers, pr).condition == "3"
