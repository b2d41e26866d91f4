import pytest

from ealgebra import (
    Element,
    Location,
    ModeError,
    ScheduleError,
    SeededChooser,
    State,
    StateValidityError,
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
    quasi_sequential_step,
    reachable_states,
    sequential_run,
    validate_spec_state,
    view,
)
from ealgebra.distributed import PartialRun, quasi_move_updates, segment_states

from conftest import load_initial, load_program

I = Element.integer
E = Element.named
UP, DOWN, THINK, EAT = E("up"), E("down"), E("think"), E("eat")


def mode(state, i):
    return state.read(Location("Mode", (I(i),)))


def fork(state, i):
    return state.read(Location("Fork", (I(i),)))


# ---------------------------------------------------------------------------
# Agents and views


def test_agents_of_philosophers(philosophers, ring3):
    agents = agents_of(philosophers, ring3)
    assert [a.element for a in agents] == [I(0), I(1), I(2)]
    assert all(a.module == "Phil" for a in agents)
    assert all(a.program is philosophers.modules["Phil"] for a in agents)


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
    tampered = sendrecv_state.patch_static(
        [(Location("Team"), sendrecv_state.read(Location("Sender")))]
    )
    with pytest.raises(StateValidityError):
        validate_spec_state(sendrecv, tampered)


def test_view_binds_self(philosophers, ring3):
    agents = agents_of(philosophers, ring3)
    local = view(philosophers, ring3, agents[1])
    assert local.read(Location("Self")) == I(1)


def test_view_drops_names_outside_the_module(philosophers, ring3):
    from ealgebra import VocabularyError

    agents = agents_of(philosophers, ring3)
    local = view(philosophers, ring3, agents[0])
    with pytest.raises(VocabularyError):
        local.read(Location("Mod", (I(0),)))  # Phil's rule never mentions Mod
    with pytest.raises(VocabularyError):
        local.read(Location("P", (I(0),)))


def test_views_of_two_agents_differ_only_at_self(philosophers, ring3):
    a0, a1 = agents_of(philosophers, ring3)[:2]
    v0 = view(philosophers, ring3, a0)
    v1 = view(philosophers, ring3, a1)
    t0 = dict((f, dict(t)) for f, t in v0._tables.items())
    t1 = dict((f, dict(t)) for f, t in v1._tables.items())
    assert t0.pop("Self") != t1.pop("Self")
    assert t0 == t1


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
    assert record.updates == UpdateSet.of([Update(Location("In", (E("r"),)), E("payload"))])
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
    assert union.is_consistent  # Fork(1) := up appears twice with one value
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
    pr = antichain_run(philosophers4, ring4)
    full = frozenset(pr.moves)
    bad = pr.states[full].fire_update(Update(Location("Mode", (I(3),)), EAT))
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
        UpdateSet.of([Update(Location("Mode", (I(3),)), EAT)])
    )
    states = dict(pr.states)
    states[frozenset()] = tampered
    broken = PartialRun(pr.moves, pr.agent_of, pr.edges, states, pr.recorded)
    verdict = check_partial_run(philosophers4, broken, initial_state=ring4)
    assert not verdict.valid and verdict.condition == "3"


def test_linearizations_of_an_antichain(philosophers4, ring4):
    pr = generate_partial_run(philosophers4, ring4, [I(0), I(2)])
    report = linearizations(philosophers4, pr)
    assert len(report.traces) == 2  # 2! orders
    assert corollary1_holds(report)


def test_linearizations_of_a_chain(philosophers4, ring4):
    pr = generate_partial_run(philosophers4, ring4, [I(0), I(0), I(0)])
    report = linearizations(philosophers4, pr)
    assert len(report.traces) == 1


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
    pr = generate_partial_run(philosophers4, ring4, [I(0), I(2), I(1)])
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
    bad = {"m1": UpdateSet.of([Update(Location("f"), E("c" ))])}
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
