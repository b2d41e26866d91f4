"""Distributed evolving algebras: agents, moves and runs.

An element is an agent at a state when Mod maps it to a module name's
element.  An agent moves by firing its module's program at the global
state with Self bound to the agent; the program sees only its module's
names, and the update set changes the global state.  That is a sequential
step given the agent, so moves and runs go through ``runner.move`` and
reachability through ``runner.successors``, and their records carry the
family size and choice index needed for replay.  Partially ordered runs
are verified against the four run conditions: finite down-sets, per-agent
linearity, initial-state validity and coherence of the segment states.
"""

from __future__ import annotations

from itertools import chain, combinations, islice
from math import prod
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from . import syntax
from .errors import (
    BudgetError,
    CertificateError,
    EalgebraError,
    ModeError,
    ScheduleError,
    StateValidityError,
    require,
    require_int,
)
from .evaluator import Footprint, updates  # noqa: F401 (perfbench traces it here)
from .runner import (
    RunTrace,
    SeededChooser,
    StepRecord,
    _Effect,
    _footprints_conflict,
    check_appropriate,
    move,
    resolutions,
)
from .state import UNDEF, Element, Location, State, UpdateSet, format_element
from .syntax import DistributedSpec, Program

class Agent(syntax.Value):
    element: Element
    module: str
    program: Program


def _require_spec(spec, entry_point: str) -> DistributedSpec:
    """``spec``, refused with ``ModeError`` when it is a single-agent
    ``Program`` and with ``ContractViolation`` naming ``entry_point`` when
    it is no spec at all."""
    if isinstance(spec, Program):
        raise ModeError("a single-agent program runs with run, not as a distributed spec")
    return require(spec, DistributedSpec, entry_point)


def validate_spec_state(spec: DistributedSpec, state: State) -> dict[Element, str]:
    """The two state conditions: distinct module elements, finitely many agents.

    Finiteness is structural (tables are finite), but a module name
    interpreted as undef would make every unmentioned element an agent, so
    that is rejected along with colliding module elements
    (``StateValidityError``).  Then every module's names must be
    interpreted as the module declares them (``VocabularyError``).
    Returns the module name of each module element.  A single-agent
    ``Program`` raises ``ModeError``.
    """
    _require_spec(spec, "validate_spec_state")
    require(state, State, "validate_spec_state")
    seen: dict[Element, str] = {}
    for name in spec.module_names:
        el = state.read(Location(name))
        if el == UNDEF:
            raise StateValidityError(f"module name {name} is uninterpreted (undef)")
        if el in seen:
            raise StateValidityError(
                f"module names {seen[el]} and {name} share the element "
                f"{format_element(el)}"
            )
        seen[el] = name
    for program in spec.modules.values():
        check_appropriate(program, state)
    return seen


def agents_of(
    spec: DistributedSpec, state: State, by_element: Mapping[Element, str] | None = None
) -> list[Agent]:
    """All elements a with Mod(a) equal to some module name's element.

    ``by_element`` is the map ``validate_spec_state`` returned for the
    state or one fired from it (see ``_agent``); without it the state is
    validated here."""
    _require_spec(spec, "agents_of")
    require(state, State, "agents_of")
    if by_element is None:
        by_element = validate_spec_state(spec, state)
    agents = []
    for _, args, value in state.facts("Mod"):
        module = by_element.get(value)
        if module is not None:
            agents.append(Agent(args[0], module, spec.modules[module]))
    agents.sort(key=lambda a: a.element.sort_key())
    return agents


def _agent(
    spec: DistributedSpec, by_element: Mapping[Element, str], state: State, element: Element
) -> Program | None:
    """``element``'s module program at the state, None for no agent, given
    the map ``validate_spec_state`` returned for the state or any state
    fired from it: module names are static and nullary, so no update changes it."""
    module = by_element.get(state.read(Location("Mod", (element,))))
    return None if module is None else spec.modules[module]


def scheduled_agent(
    spec: DistributedSpec, by_element: Mapping[Element, str], state: State, element: Element
) -> Program:
    """``_agent``, raising ``ScheduleError`` when the element is no agent."""
    program = _agent(spec, by_element, state, element)
    if program is None:
        raise ScheduleError(f"{format_element(element)} is not an agent here")
    return program


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
    """Fire the agent's module program at the state, Self bound to it.

    A footprint gets what ``runner.resolutions`` records for the move,
    ``Mod(Self)`` among it.
    """
    _require_spec(spec, "agent_move")
    require(state, State, "agent_move")
    require_int(index, "agent_move")
    if isinstance(agent, Element):
        program = scheduled_agent(spec, validate_spec_state(spec, state), state, agent)
    else:
        program, agent = agent.program, agent.element
    return move(
        program, state, chooser, oracle=oracle, index=index, agent=agent, footprint=footprint,
    )


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
    _require_spec(spec, "sequential_run")
    if max_steps is not None and require_int(max_steps, "sequential_run") < 0:
        raise ScheduleError("max_steps must not be negative")
    by_element = validate_spec_state(spec, require(initial, State, "sequential_run"))
    if chooser is None:
        chooser = SeededChooser(0)
    if schedule is not None:
        schedule = list(schedule if max_steps is None else schedule[:max_steps])
        max_steps = len(schedule)
    elif max_steps is None:
        raise ScheduleError("a run without a schedule needs max_steps")
    state, records = initial, []
    for index in range(1, max_steps + 1):
        if schedule is not None:
            element = schedule[index - 1]
        else:
            agents = agents_of(spec, state, by_element)
            if not agents:
                break
            element = agents[chooser.choose(len(agents))].element
        program = scheduled_agent(spec, by_element, state, element)
        state, record = move(program, state, chooser, oracle=oracle, index=index, agent=element)
        records.append(record)
    return RunTrace(initial, records, "schedule-end", state)


# ---------------------------------------------------------------------------
# Partially ordered runs


class PartialRun(syntax.Value):
    """A move poset with agent labels, recorded update sets and sigma on
    some segments, the empty one at least (``segment_states`` gives all)."""

    moves: tuple[str, ...]
    agent_of: Mapping[str, Element]
    edges: frozenset[tuple[str, str]]  # (earlier, later)
    states: Mapping[frozenset, State]  # keyed by frozenset of move ids
    recorded: Optional[Mapping[str, UpdateSet]] = None


class Verdict(syntax.Value):
    valid: bool
    condition: Optional[str] = None  # "1".."4" or "certificate"
    message: str = ""
    witness: Optional[object] = None

    def __bool__(self):
        return self.valid


# The most moves the initial segments of one order may hold in all, counted
# once per segment a move is in: the segment scan's work grows with this
# sum, so past it the scan stops with ``BudgetError`` before any rule runs.
# 2^20 covers every order on 16 moves, a chain of 1,447 and (as pairs the
# independence pass tests) an antichain of 1,448.
SEGMENT_BUDGET = 1 << 20
_CYCLE = "the move order is ill-founded (cycle in the edges)"


class _Refuted(CertificateError):
    """A certificate refuted where the fault is found, carrying its verdict."""

    def __init__(self, condition: str, message: str, witness: object = None):
        super().__init__(message)
        self.verdict = Verdict(False, condition, message, witness)


def _over_budget() -> BudgetError:
    return BudgetError(
        f"the initial segments of the move order hold more than "
        f"{SEGMENT_BUDGET} moves in all"
    )


class _Order(syntax.Value):
    """The direct edges of a move order, both ways, and its moves in level
    order, which is None when the edges contain a cycle."""

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
    # Kahn's algorithm by levels: each level sorted, after the one enabling it.
    waiting = {m: len(preds) for m, preds in direct.items()}
    level = sorted(m for m, n in waiting.items() if not n)
    placed = []
    while level:
        placed += level
        enabled = []
        for m in level:
            for x in later[m]:
                waiting[x] -= 1
                if not waiting[x]:
                    enabled.append(x)
        level = sorted(enabled)
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
    return all(m in order.direct and order.direct[m] <= moves for m in moves)


def _shape(pr: PartialRun) -> _Order:
    """The certificate's move order, checking its shape: move ids given
    once, each with an agent label, edges and ``updates`` lines that name
    given moves, an acyclic order, and sigma keys that are initial segments
    of it, in that order."""
    known = set(pr.moves)
    problems = chain(
        ["duplicate move ids"] if len(known) != len(pr.moves) else [],
        (f"move {m} has no agent label" for m in pr.moves if m not in pr.agent_of),
        (f"edge ({a}, {b}) names unknown moves" for a, b in pr.edges if not known >= {a, b}),
        (f"updates line names unknown move {m}" for m in pr.recorded or () if m not in known),
    )
    problem = next(problems, None)
    if problem is not None:
        raise _Refuted("certificate", problem)
    order = _order(pr.moves, pr.edges)
    if order.topological is None:
        raise _Refuted("1", _CYCLE)
    for key in pr.states:
        if not key <= known:
            raise _Refuted("certificate", "sigma key names unknown moves")
        if not _is_down_set(order, key):
            raise _Refuted(
                "certificate",
                f"sigma key {{{', '.join(sorted(key))}}} is not an initial segment",
            )
    return order


def _base(pr: PartialRun) -> State:
    """Sigma of the empty segment."""
    base = pr.states.get(frozenset())
    if base is None:
        raise _Refuted("certificate", "sigma of the empty segment is missing")
    return base


def _initial_segments(order: _Order) -> Iterator[tuple[frozenset[str], tuple[str, ...]]]:
    """Yield every initial segment (down-set) of an acyclic order with its
    sorted maximal moves, by size, then by sorted ids, one level at a time.

    Level k+1 extends each level-k segment by each move it enables, one
    whose direct predecessors all lie in the segment.  What the grown
    segment enables and its maximal moves follow from its parent's: it
    enables the parent's moves but the one added, plus the added move's
    direct successors now enabled; its maximal moves (those with no direct
    successor in it) are the added move and the parent's maximal moves
    that are not direct predecessors of it.  So the work follows the size
    of the segments, not the number of subsets.  Past ``SEGMENT_BUDGET``
    moves in all this raises ``BudgetError``, once the level before is
    yielded.
    """
    direct, later = order.direct, order.later
    yield frozenset(), ()
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
        for segment in sorted(grown, key=sorted) if len(grown) > 1 else grown:
            yield segment, grown[segment][1]
        level = grown


def _move_update_set(
    spec: DistributedSpec, pr: PartialRun, move: str, at: State,
    by_element: Mapping[Element, str], footprint: Footprint | None = None,
) -> UpdateSet:
    """The update set of a move at a state fired from the base whose
    module-element map is ``by_element``, checked against its module.  A
    footprint gets what ``runner.resolutions`` records, ``Mod(Self)``
    among it."""
    element = pr.agent_of[move]
    program = _agent(spec, by_element, at, element)
    if program is None:
        raise _Refuted("4", f"{format_element(element)} is not an agent before {move}", move)
    recorded = (pr.recorded or {}).get(move)
    if recorded is None and program.has_choose:
        raise _Refuted(
            "certificate", f"nondeterministic move {move} has no recorded update set", move
        )
    # Certificates record no oracle answers: externals read as undef, as in
    # a generated run's moves.
    members, _ = resolutions(program, at, footprint=footprint, agent=element)
    if recorded is None:
        return members[0]
    if recorded not in members:
        raise _Refuted("4", f"recorded update set of {move} is not a move of its agent", move)
    return recorded


def _sigma(
    spec: DistributedSpec, pr: PartialRun, order: _Order,
    by_element: Mapping[Element, str] | None = None,
) -> dict[frozenset, State]:
    """Recompute the state function on every segment of the acyclic order,
    checking coherence, and stop at the first segment that fails.

    Segments are fired as ``_initial_segments`` yields them, unless the
    listing might pass ``SEGMENT_BUDGET``: a segment meets each chain of a
    chain cover in a prefix and is fixed by those prefixes, so the segments
    hold at most n/2 * prod(|chain| + 1) moves in all.  Past the budget the
    listing is finished before the first rule runs, so ``BudgetError``
    comes before any verdict.  The base is validated once, before the first
    move is evaluated, unless its module-element map is given."""
    computed: dict[frozenset, State] = {frozenset(): _base(pr)}
    segments = islice(_initial_segments(order), 1, None)
    chains: dict[str, int] = {}  # a greedy cover in level order: last move -> length
    for m in order.topological:
        chains[m] = chains.pop(min(order.direct[m] & chains.keys(), default=None), 0) + 1
    if len(order.topological) * prod(n + 1 for n in chains.values()) > 2 * SEGMENT_BUDGET:
        segments = list(segments)
    if pr.moves and by_element is None:
        by_element = validate_spec_state(spec, computed[frozenset()])
    for segment, maximal in segments:
        candidate = via = None
        for x in maximal:
            before = computed[segment - {x}]
            beta = _move_update_set(spec, pr, x, before, by_element)
            after, _ = before.fire_update_set(beta)
            if candidate is None:
                candidate, via = after, x
            elif after != candidate:
                raise _Refuted(
                    "4",
                    f"segment {{{', '.join(sorted(segment))}}}: firing {x} and "
                    f"{via} last disagree on the resulting state",
                    segment,
                )
        stored = pr.states.get(segment)
        if stored is not None and stored != candidate:
            raise _Refuted(
                "4",
                f"sigma at {{{', '.join(sorted(segment))}}} does not match the "
                f"recomputed state",
                segment,
            )
        computed[segment] = candidate
    return computed


def _independent(
    spec: DistributedSpec, pr: PartialRun, order: _Order,
    preds: Mapping[str, frozenset[str]], by_element: Mapping[Element, str],
) -> bool:
    """Whether the run is valid by footprint independence (Corollary 1).

    Each move is evaluated once, in level order, at the state the moves
    before it reach.  When no two incomparable moves conflict, the moves of
    every segment commute, so each has this update set wherever the scan
    would evaluate it, and a segment's state is its moves fired in level
    order.  False (a conflict, a move the scan refuses, a sigma that
    differs, an error, no or more than ``SEGMENT_BUDGET`` incomparable
    pairs) leaves the verdict to the segment scan, which evaluates each
    move of a total order once too.
    """
    n = len(order.topological)
    if not 0 < n * (n - 1) // 2 - sum(map(len, preds.values())) <= SEGMENT_BUDGET:
        return False
    computed = {frozenset(): pr.states[frozenset()]}
    state, fired, effects = computed[frozenset()], {}, {}
    try:
        for m in order.topological:
            footprint = Footprint()
            beta = _move_update_set(spec, pr, m, state, by_element, footprint)
            effect = _Effect.of([beta], footprint)
            if any(_footprints_conflict(effect, effects[x]) for x in effects.keys() - preds[m]):
                return False
            fired[m], effects[m] = beta, effect
            state, _ = state.fire_update_set(beta)
    except EalgebraError:  # the scan raises it again where it meets it
        return False
    # A key's state is the key less its latest move, then that move fired.
    position = {m: i for i, m in enumerate(order.topological)}
    for key, stored in pr.states.items():
        below, moves, missing = key, sorted(key, key=position.__getitem__), []
        while below not in computed:
            missing.append((below, moves.pop()))
            below = below - {missing[-1][1]}
        for segment, latest in reversed(missing):
            computed[segment], _ = computed[below].fire_update_set(fired[latest])
            below = segment
        if computed[key] != stored:
            return False
    return True


def check_partial_run(
    spec: DistributedSpec,
    pr: PartialRun,
    *,
    initial_state: State | None = None,
) -> Verdict:
    """Verify the four partially-ordered-run conditions on a certificate;
    ``initial_state`` is also sigma of the empty segment when it gives none.

    The first fault found refutes it: certificate shape, then conditions 1
    to 4 in order.  Condition 4 holds at once when the moves' footprints
    are independent (``_independent``); otherwise the segment scan decides
    it, stopping at the first segment that fails (``_sigma``).  Raises
    ``BudgetError`` when the predecessor sets, or all the segments the scan
    would list, hold more than ``SEGMENT_BUDGET`` moves, whichever segment
    fails.
    """
    _require_spec(spec, "check_partial_run")
    require(pr, PartialRun, "check_partial_run")
    if initial_state is not None:
        require(initial_state, State, "check_partial_run")
        if frozenset() not in pr.states:
            pr = pr._replace(states={**pr.states, frozenset(): initial_state})
    try:
        # Certificate shape, and the acyclic order of condition 1.
        order = _shape(pr)

        # Condition 2: moves of any single agent are linearly ordered.
        preds = _predecessor_closure(order)
        by_agent: dict[Element, list[str]] = {}
        for move in pr.moves:
            by_agent.setdefault(pr.agent_of[move], []).append(move)
        for element, moves in by_agent.items():
            for a, b in combinations(sorted(moves), 2):
                if a not in preds[b] and b not in preds[a]:
                    raise _Refuted(
                        "2",
                        f"moves {a} and {b} of agent {format_element(element)} "
                        f"are incomparable",
                        (a, b),
                    )

        # Condition 3: sigma of the empty segment is an initial state.
        base = _base(pr)
        try:
            by_element = validate_spec_state(spec, base)
        except StateValidityError as exc:
            raise _Refuted("3", f"sigma of the empty segment: {exc}") from None
        if initial_state is not None and base != initial_state:
            raise _Refuted("3", "sigma of the empty segment is not the declared initial state")

        # Condition 4 (and 1 via the closure): coherence over every segment,
        # shown by independence, or else segment by segment.
        if not _independent(spec, pr, order, preds, by_element):
            _sigma(spec, pr, order, by_element)
    except _Refuted as refuted:
        return refuted.verdict
    return Verdict(True, None, "all run conditions hold")


def segment_states(spec: DistributedSpec, pr: PartialRun) -> dict[frozenset, State]:
    """The state of every initial segment, checked for coherence."""
    return _sigma(spec, pr, _shape(require(pr, PartialRun, "segment_states")))


class LinearizationReport(syntax.Value):
    traces: list[RunTrace]
    complete: bool


def _topological_orders(
    order: _Order, segment: frozenset, budget: int
) -> tuple[list[list[str]], bool]:
    """The segment's topological orders, depth first with the smallest id
    placed first, and whether all were listed before ``budget`` ran out."""
    orders: list[list[str]] = []
    placed: list[str] = []
    # stack[i] yields the moves that may go at position i after placed[:i].
    stack = []
    while True:
        if len(orders) >= budget:
            return orders, False
        if len(placed) == len(segment):
            orders.append(list(placed))
        done = frozenset(placed)
        stack.append(iter([m for m in sorted(segment - done) if order.direct[m] <= done]))
        while (m := next(stack[-1], None)) is None:
            stack.pop()
            if not stack:
                return orders, True
            placed.pop()
        placed.append(m)


def linearizations(
    spec: DistributedSpec,
    pr: PartialRun,
    segment: frozenset | None = None,
    *,
    budget: int = 10000,
) -> LinearizationReport:
    """All topological orders of a finite initial segment, as sequential
    runs, up to ``budget`` of them."""
    _require_spec(spec, "linearizations")
    if require_int(budget, "linearizations") < 1:
        raise ScheduleError("budget must be positive")
    order = _shape(require(pr, PartialRun, "linearizations"))
    segment = frozenset(pr.moves) if segment is None else frozenset(segment)
    if not _is_down_set(order, segment):
        raise CertificateError("not an initial segment")
    base = _base(pr)

    orders, complete = _topological_orders(order, segment, budget)
    by_element = validate_spec_state(spec, base) if segment else {}
    traces = []
    for order in orders:
        state, records = base, []
        for index, move in enumerate(order, start=1):
            beta = _move_update_set(spec, pr, move, state, by_element)
            state, fired = state.fire_update_set(beta)
            records.append(StepRecord(index, beta, fired, None, None, (), pr.agent_of[move]))
        traces.append(RunTrace(base, records, "schedule-end", state))
    return LinearizationReport(traces=traces, complete=complete)


def corollary1_holds(report: LinearizationReport) -> bool:
    """Every linearization of the same segment ends in the same final state."""
    require(report, LinearizationReport, "corollary1_holds")
    finals = {trace.final_state for trace in report.traces}
    return len(finals) <= 1


def corollary2_agrees(spec: DistributedSpec, pr: PartialRun, guard: syntax.Guard) -> bool:
    """Predicate truth over reachable states matches truth over all
    linearization states."""
    from .evaluator import eval_guard

    _require_spec(spec, "corollary2_agrees")
    require(pr, PartialRun, "corollary2_agrees")
    over_run = all(eval_guard(s, None, guard) for s in segment_states(spec, pr).values())
    report = linearizations(spec, pr)
    over_linear = all(
        eval_guard(s, None, guard) for trace in report.traces for s in trace.states
    )
    return over_run == over_linear


# ---------------------------------------------------------------------------
# Generating valid partial runs from sequential executions


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
    The run carries sigma of the empty segment and every move's update
    set, which give the state of every initial segment because independent
    moves commute (Corollary 1); ``segment_states`` lists them.  The result
    is a valid run by construction.
    """
    _require_spec(spec, "generate_partial_run")
    by_element = validate_spec_state(spec, require(initial, State, "generate_partial_run"))
    if chooser is None:
        chooser = SeededChooser(0)
    state, betas, effects, schedule = initial, [], [], list(schedule)
    for i, element in enumerate(schedule, start=1):
        footprint, program = Footprint(), scheduled_agent(spec, by_element, state, element)
        state, record = move(program, state, chooser, index=i, agent=element, footprint=footprint)
        betas.append(record.updates)
        effects.append(_Effect.of([record.updates], footprint))
    moves = tuple(f"m{i}" for i in range(1, len(effects) + 1))
    edges = frozenset(
        (moves[i], moves[j])
        for i, j in combinations(range(len(moves)), 2)
        if schedule[i] == schedule[j] or _footprints_conflict(effects[i], effects[j])
    )
    return PartialRun(
        moves, dict(zip(moves, schedule)), edges, {frozenset(): initial},
        dict(zip(moves, betas)),
    )
