"""Distributed evolving algebras: agents, views, moves and runs.

An element is an agent at a state when Mod maps it to a module name's
element.  An agent moves by firing its module's program against its view
(the global state reduced to the module's names and expanded with Self)
and changing the global state accordingly.  That is a sequential step
with the view as the local state, so moves, their successors and runs go
through ``runner.move`` and ``runner.successors``, and their records carry
the family size and choice index needed for replay.  Partially ordered runs are
verified against the four run conditions: finite down-sets, per-agent
linearity, initial-state validity and coherence of the segment states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from . import syntax
from .errors import (
    BudgetError,
    CertificateError,
    ModeError,
    ScheduleError,
    StateValidityError,
)
from .evaluator import Footprint, updates  # noqa: F401 (perfbench traces it here)
from .runner import (
    RunTrace,
    SeededChooser,
    StepRecord,
    fire_and_record,
    move,
    resolutions,
    successors,
)
from .state import Element, Location, State, UpdateSet, format_element
from .syntax import DistributedSpec, Program
from .vocabulary import SELF, Vocabulary

@dataclass(frozen=True)
class Agent:
    element: Element
    module: str
    program: Program


def module_elements(spec: DistributedSpec, state: State) -> dict[str, Element]:
    return {name: state.read(Location(name)) for name in spec.module_names}


def validate_spec_state(spec: DistributedSpec, state: State) -> dict[Element, str]:
    """The two state conditions: distinct module elements, finitely many agents.

    Finiteness is structural (tables are finite), but a module name
    interpreted as undef would make every unmentioned element an agent, so
    that is rejected along with colliding module elements.  Returns the
    module name of each module element.
    """
    elements = module_elements(spec, state)
    from .state import UNDEF

    seen: dict[Element, str] = {}
    for name, el in elements.items():
        if el == UNDEF:
            raise StateValidityError(f"module name {name} is uninterpreted (undef)")
        if el in seen:
            raise StateValidityError(
                f"module names {seen[el]} and {name} share the element "
                f"{format_element(el)}"
            )
        seen[el] = name
    return seen


def agents_of(spec: DistributedSpec, state: State) -> list[Agent]:
    """All elements a with Mod(a) equal to some module name's element."""
    by_element = validate_spec_state(spec, state)
    agents = []
    for _, args, value in state.facts("Mod"):
        module = by_element.get(value)
        if module is not None:
            agents.append(Agent(args[0], module, spec.modules[module]))
    agents.sort(key=lambda a: a.element.sort_key())
    return agents


def agent_at(spec: DistributedSpec, state: State, element: Element) -> Agent | None:
    """The agent ``element`` is at the state, or None: one read of Mod."""
    module = validate_spec_state(spec, state).get(state.read(Location("Mod", (element,))))
    return None if module is None else Agent(element, module, spec.modules[module])


def view(spec: DistributedSpec, state: State, agent: Agent) -> State:
    """The agent's local state: reduct to its names, Self bound to it."""
    names = tuple(fn for fn in agent.program.vocabulary.names if fn.name != "Self")
    sub = Vocabulary(
        names,
        integers=agent.program.vocabulary.integers,
        modulus=agent.program.vocabulary.modulus,
    )
    return state.reduct(sub).expand({"Self": agent.element}, {"Self": SELF})


def agent_move(
    spec: DistributedSpec,
    state: State,
    agent: Agent | Element,
    chooser=None,
    *,
    oracle=None,
    index: int = 1,
    footprint: Footprint | None = None,
) -> tuple[State, StepRecord]:
    """Fire the agent's program at its view; apply the updates globally.

    Being an agent of its module is part of what the move reads, so a
    footprint also gets ``Mod(Self)`` and the module name's location.
    """
    if isinstance(agent, Element):
        found = agent_at(spec, state, agent)
        if found is None:
            raise ScheduleError(f"{format_element(agent)} is not an agent here")
        agent = found
    if footprint is not None:
        footprint.locations.add(Location("Mod", (agent.element,)))
        footprint.locations.add(Location(agent.module))
    return move(
        agent.program, state, view(spec, state, agent), chooser,
        oracle=oracle, index=index, agent=agent.element, footprint=footprint,
    )


def move_successors(spec: DistributedSpec, state: State) -> list[tuple[str, State]]:
    """Every (move description, successor) over all agents and resolutions."""
    return [
        successor
        for agent in agents_of(spec, state)
        for successor in successors(
            agent.program, state, view(spec, state, agent),
            f"agent {format_element(agent.element)}",
        )
    ]


def sequential_run(
    spec: DistributedSpec,
    initial: State,
    schedule: Sequence[Element] | None = None,
    *,
    chooser=None,
    oracle=None,
    max_steps: int | None = None,
) -> RunTrace:
    """Execute one agent move per stage.

    The agents move in schedule order; with no schedule, each stage's agent
    is drawn by the chooser from the agents at the current state, until
    ``max_steps`` stages have run or no agent is left.  One chooser
    (``SeededChooser(0)`` if none) draws the agent first, then a member of
    the agent's family when it has more than one.
    """
    validate_spec_state(spec, initial)
    if chooser is None:
        chooser = SeededChooser(0)
    if schedule is not None:
        schedule = list(schedule if max_steps is None else schedule[:max_steps])
        max_steps = len(schedule)
    elif max_steps is None:
        raise ScheduleError("a run without a schedule needs max_steps")
    trace = RunTrace(states=[initial], records=[], stop_reason="schedule-end")
    state = initial
    for index in range(1, max_steps + 1):
        if schedule is not None:
            agent = schedule[index - 1]
        else:
            agents = agents_of(spec, state)
            if not agents:
                break
            agent = agents[chooser.choose(len(agents))]
        state, record = agent_move(
            spec, state, agent, chooser, oracle=oracle, index=index
        )
        trace.states.append(state)
        trace.records.append(record)
    return trace


def quasi_move_updates(
    spec: DistributedSpec, state: State, agents: Iterable[Element]
) -> UpdateSet:
    """Union of the agents' update sets at the same state."""
    union = UpdateSet()
    for element in agents:
        agent = agent_at(spec, state, element)
        if agent is None:
            raise ScheduleError(f"{format_element(element)} is not an agent here")
        if agent.program.has_choose:
            raise ModeError(
                f"quasi-sequential steps need deterministic agents ({agent.module})"
            )
        members, _ = resolutions(agent.program, view(spec, state, agent))
        union = union.union(members[0])
    return union


def quasi_sequential_step(
    spec: DistributedSpec, state: State, agents: Iterable[Element]
) -> State:
    """Fire a collection of agents as one simultaneous update set."""
    union = quasi_move_updates(spec, state, agents)
    new_state, _ = state.fire_update_set(union)
    return new_state


# ---------------------------------------------------------------------------
# Partially ordered runs


@dataclass
class PartialRun:
    """A move poset with agent labels and a state function on segments."""

    moves: tuple[str, ...]
    agent_of: Mapping[str, Element]
    edges: frozenset[tuple[str, str]]  # (earlier, later)
    states: Mapping[frozenset, State]  # keyed by frozenset of move ids
    recorded: Optional[Mapping[str, UpdateSet]] = None


@dataclass
class Verdict:
    valid: bool
    condition: Optional[str] = None  # "1".."4" or "certificate"
    message: str = ""
    witness: Optional[object] = None

    def __bool__(self):
        return self.valid


# The most moves that the initial segments of one order may hold in all,
# counted once per segment a move is in.  Listing the segments, and the
# rule evaluations and state copies of a check, grow with this sum, so
# past it a check stops with ``BudgetError`` before any rule is evaluated.
# 2^20 covers every order on at most 16 moves and a chain of 1,447.
SEGMENT_BUDGET = 1 << 20
_CYCLE = "the move order is ill-founded (cycle in the edges)"


def _over_budget() -> BudgetError:
    return BudgetError(
        f"the initial segments of the move order hold more than "
        f"{SEGMENT_BUDGET} moves in all"
    )


@dataclass(frozen=True)
class _Order:
    """The direct edges of a move order, both ways, and its moves in a
    topological order, which is None when the edges contain a cycle."""

    direct: dict[str, set[str]]  # move -> its direct predecessors
    later: dict[str, list[str]]  # move -> its direct successors
    topological: Optional[list[str]]


def _order(moves: Sequence[str], edges: Iterable[tuple[str, str]]) -> _Order:
    direct: dict[str, set[str]] = {m: set() for m in moves}
    for earlier, after in edges:
        direct[after].add(earlier)
    later: dict[str, list[str]] = {m: [] for m in moves}
    for m, preds in direct.items():
        for p in preds:
            later[p].append(m)
    # Kahn's algorithm: a move is placed once all its predecessors are.
    waiting = {m: len(preds) for m, preds in direct.items()}
    ready = [m for m, n in waiting.items() if not n]
    placed = []
    while ready:
        m = ready.pop()
        placed.append(m)
        for x in later[m]:
            waiting[x] -= 1
            if not waiting[x]:
                ready.append(x)
    return _Order(direct, later, placed if len(placed) == len(direct) else None)


def _predecessor_closure(order: _Order) -> dict[str, frozenset[str]]:
    """Strict predecessors per move of an acyclic order.

    A move with its predecessors is an initial segment, so past
    ``SEGMENT_BUDGET`` moves in all this raises ``BudgetError``, as listing
    the segments would.
    """
    closed: dict[str, frozenset[str]] = {}
    held = 0
    for m in order.topological:
        closed[m] = frozenset(order.direct[m]).union(
            *(closed[p] for p in order.direct[m])
        )
        held += len(closed[m]) + 1
        if held > SEGMENT_BUDGET:
            raise _over_budget()
    return closed


def _is_down_set(order: _Order, moves: frozenset) -> bool:
    return all(order.direct[m] <= moves for m in moves)


def _initial_segments(order: _Order) -> list[tuple[frozenset[str], tuple[str, ...]]]:
    """Every initial segment (down-set) of an acyclic order with its sorted
    maximal moves, by size, then by sorted ids.

    Level k+1 extends each level-k segment by each move it enables, one
    whose direct predecessors all lie in the segment.  What the grown
    segment enables and its maximal moves follow from its parent's: it
    enables the parent's moves but the one added, plus the added move's
    direct successors now enabled; its maximal moves (those with no direct
    successor in it) are the added move and the parent's maximal moves
    that are not direct predecessors of it.  So the work follows the size
    of the segments, not the number of subsets.  Past ``SEGMENT_BUDGET``
    moves in all this raises ``BudgetError``.
    """
    direct, later = order.direct, order.later
    out: list[tuple[frozenset[str], tuple[str, ...]]] = [(frozenset(), ())]
    level = {frozenset(): ([m for m, preds in direct.items() if not preds], ())}
    held = 0
    while level:
        grown: dict[frozenset[str], tuple[list[str], tuple[str, ...]]] = {}
        for segment, (enabled, maximal) in level.items():
            for m in enabled:
                bigger = segment | {m}
                if bigger in grown:
                    continue
                held += len(bigger)
                if held > SEGMENT_BUDGET:
                    raise _over_budget()
                grown[bigger] = (
                    [x for x in enabled if x != m]
                    + [x for x in later[m] if direct[x] <= bigger],
                    tuple(sorted([m, *(x for x in maximal if x not in direct[m])])),
                )
        ordered = sorted(grown, key=sorted) if len(grown) > 1 else grown
        out.extend((segment, grown[segment][1]) for segment in ordered)
        level = grown
    return out


def _move_update_set(
    spec: DistributedSpec, pr: PartialRun, move: str, at: State
) -> tuple[UpdateSet | None, Verdict | None]:
    """The update set of a move at a state, checked against its module."""
    element = pr.agent_of[move]
    agent = agent_at(spec, at, element)
    if agent is None:
        return None, Verdict(
            False, "4", f"{format_element(element)} is not an agent before {move}",
            witness=move,
        )
    recorded = (pr.recorded or {}).get(move)
    if recorded is None and agent.program.has_choose:
        return None, Verdict(
            False,
            "certificate",
            f"nondeterministic move {move} has no recorded update set",
            witness=move,
        )
    # Certificates record no oracle answers: externals read as undef, as in
    # a generated run's moves.
    members, _ = resolutions(agent.program, view(spec, at, agent))
    if recorded is None:
        return members[0], None
    if recorded not in members:
        return None, Verdict(
            False, "4", f"recorded update set of {move} is not a move of its agent",
            witness=move,
        )
    return recorded, None


def _sigma(
    spec: DistributedSpec, pr: PartialRun, order: _Order
) -> tuple[dict[frozenset, State], Optional[Verdict]]:
    """Recompute the state function on every segment of the acyclic order,
    checking coherence."""
    base = pr.states.get(frozenset())
    if base is None:
        return {}, Verdict(False, "certificate", "sigma of the empty segment is missing")
    computed: dict[frozenset, State] = {frozenset(): base}
    for segment, maximal in _initial_segments(order)[1:]:
        candidate = None
        via = None
        for x in maximal:
            before = computed[segment - {x}]
            beta, verdict = _move_update_set(spec, pr, x, before)
            if verdict is not None:
                return computed, verdict
            after, _ = before.fire_update_set(beta)
            if candidate is None:
                candidate, via = after, x
            elif after != candidate:
                return computed, Verdict(
                    False,
                    "4",
                    f"segment {{{', '.join(sorted(segment))}}}: firing {x} and "
                    f"{via} last disagree on the resulting state",
                    witness=segment,
                )
        stored = pr.states.get(segment)
        if stored is not None and stored != candidate:
            return computed, Verdict(
                False,
                "4",
                f"sigma at {{{', '.join(sorted(segment))}}} does not match the "
                f"recomputed state",
                witness=segment,
            )
        computed[segment] = candidate
    return computed, None


def check_partial_run(
    spec: DistributedSpec,
    pr: PartialRun,
    *,
    initial_state: State | None = None,
) -> Verdict:
    """Verify the four partially-ordered-run conditions on a certificate.

    Raises ``BudgetError`` when the order's initial segments hold more
    than ``SEGMENT_BUDGET`` moves in all.
    """
    # Certificate shape.
    if len(set(pr.moves)) != len(pr.moves):
        return Verdict(False, "certificate", "duplicate move ids")
    known = set(pr.moves)
    for move in pr.moves:
        if move not in pr.agent_of:
            return Verdict(False, "certificate", f"move {move} has no agent label")
    for earlier, later in pr.edges:
        if earlier not in known or later not in known:
            return Verdict(False, "certificate", f"edge ({earlier}, {later}) names unknown moves")
    order = _order(pr.moves, pr.edges)
    if order.topological is None:
        return Verdict(False, "1", _CYCLE)
    for key in pr.states:
        if not key <= known:
            return Verdict(False, "certificate", "sigma key names unknown moves")
        if not _is_down_set(order, key):
            return Verdict(
                False, "certificate",
                f"sigma key {{{', '.join(sorted(key))}}} is not an initial segment",
            )

    # Condition 2: moves of any single agent are linearly ordered.
    preds = _predecessor_closure(order)
    by_agent: dict[Element, list[str]] = {}
    for move in pr.moves:
        by_agent.setdefault(pr.agent_of[move], []).append(move)
    for element, moves in by_agent.items():
        for a, b in combinations(sorted(moves), 2):
            if a not in preds[b] and b not in preds[a]:
                return Verdict(
                    False,
                    "2",
                    f"moves {a} and {b} of agent {format_element(element)} "
                    f"are incomparable",
                    witness=(a, b),
                )

    # Condition 3: sigma of the empty segment is an initial state.
    base = pr.states.get(frozenset())
    if base is None:
        return Verdict(False, "certificate", "sigma of the empty segment is missing")
    try:
        validate_spec_state(spec, base)
    except StateValidityError as exc:
        return Verdict(False, "3", f"sigma of the empty segment: {exc}")
    if initial_state is not None and base != initial_state:
        return Verdict(
            False, "3", "sigma of the empty segment is not the declared initial state"
        )

    # Condition 4 (and 1 via the closure): coherence over every segment.
    _, verdict = _sigma(spec, pr, order)
    if verdict is not None:
        return verdict
    return Verdict(True, None, "all run conditions hold")


def segment_states(spec: DistributedSpec, pr: PartialRun) -> dict[frozenset, State]:
    order = _order(pr.moves, pr.edges)
    if order.topological is None:
        raise CertificateError(_CYCLE)
    sigma, verdict = _sigma(spec, pr, order)
    if verdict is not None:
        raise CertificateError(verdict.message)
    return sigma


def reachable_states(spec: DistributedSpec, pr: PartialRun) -> set[State]:
    return set(segment_states(spec, pr).values())


@dataclass
class LinearizationReport:
    traces: list[RunTrace]
    complete: bool


def linearizations(
    spec: DistributedSpec,
    pr: PartialRun,
    segment: frozenset | None = None,
    *,
    budget: int = 10000,
) -> LinearizationReport:
    """All topological orders of a finite initial segment, as sequential runs."""
    order = _order(pr.moves, pr.edges)
    if order.topological is None:
        raise CertificateError("the move order is ill-founded")
    segment = frozenset(pr.moves) if segment is None else frozenset(segment)
    if not _is_down_set(order, segment):
        raise CertificateError("not an initial segment")
    base = pr.states.get(frozenset())
    if base is None:
        raise CertificateError("sigma of the empty segment is missing")

    orders: list[list[str]] = []
    complete = True

    def extend(placed: list[str], left: frozenset):
        nonlocal complete
        if len(orders) >= budget:
            complete = False
            return
        if not left:
            orders.append(list(placed))
            return
        done = frozenset(placed)
        for m in sorted(left):
            if order.direct[m] <= done:
                placed.append(m)
                extend(placed, left - {m})
                placed.pop()
                if not complete:
                    return

    extend([], segment)

    traces = []
    for order in orders:
        state = base
        states = [state]
        records = []
        for index, move in enumerate(order, start=1):
            beta, verdict = _move_update_set(spec, pr, move, state)
            if verdict is not None:
                raise CertificateError(verdict.message)
            state, record = fire_and_record(
                state, beta, index=index, agent=pr.agent_of[move]
            )
            records.append(record)
            states.append(state)
        traces.append(RunTrace(states=states, records=records, stop_reason="schedule-end"))
    return LinearizationReport(traces=traces, complete=complete)


def corollary1_holds(report: LinearizationReport) -> bool:
    """Every linearization of the same segment ends in the same final state."""
    finals = {trace.final_state for trace in report.traces}
    return len(finals) <= 1


def corollary2_agrees(spec: DistributedSpec, pr: PartialRun, guard: syntax.Guard) -> bool:
    """Predicate truth over reachable states matches truth over all
    linearization states."""
    from .evaluator import eval_guard

    over_run = all(eval_guard(s, None, guard) for s in reachable_states(spec, pr))
    report = linearizations(spec, pr)
    over_linear = all(
        eval_guard(s, None, guard) for trace in report.traces for s in trace.states
    )
    return over_run == over_linear


# ---------------------------------------------------------------------------
# Generating valid partial runs from sequential executions


def _footprints_conflict(
    w1: frozenset[Location], f1: Footprint, w2: frozenset[Location], f2: Footprint
) -> bool:
    names1 = {loc.fname for loc in w1}
    names2 = {loc.fname for loc in w2}
    if w1 & w2:
        return True
    if "Reserve" in names1 and "Reserve" in names2:
        return True
    if w1 & f2.locations or w2 & f1.locations:
        return True
    if names1 & f2.names or names2 & f1.names:
        return True
    return False


def generate_partial_run(
    spec: DistributedSpec,
    initial: State,
    schedule: Sequence[Element],
    *,
    chooser=None,
) -> PartialRun:
    """Run a schedule, then relax the total order to the conflict order.

    Two moves stay ordered when the same agent makes them or their
    read/write footprints interfere; all other pairs become incomparable.
    The state function is recomputed on every initial segment, so the
    result is a valid run by construction (and checked by the verifier in
    the tests).  Raises ``BudgetError`` when the order's initial segments
    hold more than ``SEGMENT_BUDGET`` moves in all.
    """
    validate_spec_state(spec, initial)
    if chooser is None:
        chooser = SeededChooser(0)
    state = initial
    entries = []
    for i, element in enumerate(schedule, start=1):
        footprint = Footprint()
        state, record = agent_move(
            spec, state, element, chooser, index=i, footprint=footprint
        )
        entries.append((f"m{i}", element, record.updates, footprint))

    edges = {
        (m1, m2)
        for (m1, el1, beta1, fp1), (m2, el2, beta2, fp2) in combinations(entries, 2)
        if el1 == el2
        or _footprints_conflict(beta1.locations(), fp1, beta2.locations(), fp2)
    }
    moves = tuple(e[0] for e in entries)
    agent_of = {e[0]: e[1] for e in entries}
    recorded = {e[0]: e[2] for e in entries}
    # Every edge runs forward in the schedule, so a segment's latest move in
    # schedule order is maximal: its state is that move fired at the state
    # of the rest, which comes earlier in the segment order.
    position = {m: i for i, m in enumerate(moves)}
    segments = _initial_segments(_order(moves, edges))
    states: dict[frozenset, State] = {frozenset(): initial}
    for segment, maximal in segments[1:]:
        latest = max(maximal, key=position.__getitem__)
        states[segment], _ = states[segment - {latest}].fire_update_set(recorded[latest])
    return PartialRun(moves, agent_of, frozenset(edges), states, recorded)
