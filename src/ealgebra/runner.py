"""Sequential execution: steps, runs, replay and bounded reachability.

A sequential step and an agent's move are one act, written once here:
``resolutions`` gives the update sets one firing of a program may apply
at a state, and ``move`` picks one with the chooser, applies it and
records it; ``successors`` fires every resolution instead, for
reachability.  An agent's move differs from a step only in ``agent``:
its module's program fires at the global state with Self bound to the
agent and the module's vocabulary as the rule's scope.  The distributed
runs and moves call these.

External functions are never written into a state's tables; every step
reads them through a per-step memoizing oracle view, so a query asked
twice within one step returns one value while later steps may see fresh
answers.  Step records capture the update set, whether it fired, the
oracle transcript and the choice index, which is enough for bit-exact
replay; a run keeps its initial state and its records.
"""

from __future__ import annotations

import json
import random
import re
from collections import deque
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Optional

from . import syntax
from .errors import (
    ContractViolation, EalgebraError, ModeError, OracleError, ParseError, ScheduleError,
    VocabularyError, require, require_int, require_text,
)
from .evaluator import Footprint, eval_guard, prepared
from .evaluator import updates  # noqa: F401 (perfbench's tests read it here)
from .state import (
    EMPTY_UPDATE_SET,
    UNDEF,
    Element,
    Location,
    State,
    StaticMirror,
    Update,
    UpdateSet,
    _flat_key,
    format_element,
    resolve,
)
from .stateio import ELEMENT_TAGS, decode_element, fact_reader
from .syntax import DistributedSpec, Program
from .vocabulary import IDENTIFIER, INTEGER, Vocabulary


# ---------------------------------------------------------------------------
# Choice sources


class SeededChooser:
    """All nondeterminism flows through one seeded generator."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, n: int) -> int:
        if n <= 0:
            raise ValueError("cannot choose from an empty collection")
        return self._rng.randrange(n)


class FixedChooser:
    """Replays a recorded sequence of choice indices."""

    def __init__(self, indices: Iterable[int]):
        self._indices = list(indices)
        self._at = 0

    def choose(self, n: int) -> int:
        if self._at >= len(self._indices):
            raise EalgebraError("fixed chooser exhausted")
        index = self._indices[self._at]
        self._at += 1
        if not 0 <= index < n:
            raise EalgebraError(f"recorded choice {index} out of range {n}")
        return index


# ---------------------------------------------------------------------------
# Oracles


class Oracle:
    """Resolves external-function queries; consistent within one step."""

    def resolve(self, fname: str, args: tuple[Element, ...], step_index: int) -> Element:
        raise NotImplementedError


class UndefOracle(Oracle):
    """Irrelevant or unscripted external values are undef."""

    def resolve(self, fname, args, step_index):
        return UNDEF


_STEP_RE = re.compile(rf"step\s+({INTEGER.pattern})\s*:\s*(.*)")


class ScriptedOracle(Oracle):
    """Answers from a script of ``step k: e(args) = value`` lines."""

    def __init__(self, answers: dict[tuple[int, str, tuple[Element, ...]], Element]):
        self.answers = dict(answers)

    @classmethod
    def parse(cls, text: str, vocabulary: Vocabulary | None = None) -> "ScriptedOracle":
        """One answer per query and step; a second is an ``OracleError``."""
        require_text(text, "ScriptedOracle.parse")
        answers = {}
        read = fact_reader("=", vocabulary)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = _STEP_RE.fullmatch(line)
            fact = m and read(m.group(2))
            if not fact or not IDENTIFIER.fullmatch(fact[0]):
                raise OracleError(f"oracle script line {lineno}: bad entry {line!r}")
            fname, args, value = fact
            key = (int(m.group(1)), fname, args)
            if key in answers:
                raise OracleError(
                    f"oracle script line {lineno}: second answer to "
                    f"{Location(fname, args)!r} at step {key[0]}"
                )
            answers[key] = value
        return cls(answers)

    @classmethod
    def load(cls, path, vocabulary: Vocabulary | None = None) -> "ScriptedOracle":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read(), vocabulary)

    def resolve(self, fname, args, step_index):
        return self.answers.get((step_index, fname, args), UNDEF)


class OracleView:
    """Per-step memo over an oracle: ask once, save the result, reuse it.
    An answer still in the step state's reserve is refused: only import
    and duplicate take an element out of it."""

    def __init__(self, oracle: Oracle, step_index: int, reserve_next: int):
        self.oracle = oracle
        self.step_index = step_index
        self.reserve_next = reserve_next
        self.memo: dict[tuple[str, tuple[Element, ...]], Element] = {}
        self.transcript: list[tuple[str, tuple[Element, ...], Element]] = []

    def __call__(self, fname: str, args: tuple[Element, ...]) -> Element:
        key = (fname, args)
        if key not in self.memo:
            value = self.oracle.resolve(fname, args, self.step_index)
            if not isinstance(value, Element):
                raise OracleError(f"{fname}: oracle returned a non-element")
            if value.kind == "reserve" and value.value >= self.reserve_next:
                raise OracleError(
                    f"{fname}: oracle returned {format_element(value)}, still in the reserve"
                )
            self.memo[key] = value
            self.transcript.append((fname, args, value))
        return self.memo[key]


# ---------------------------------------------------------------------------
# Steps and traces


class StepRecord(NamedTuple):
    """One step; ``consistent``, ``conflicts`` and ``fixpoint`` follow from the rest."""

    index: int
    updates: UpdateSet
    fired: bool
    choice_index: Optional[int]
    family_size: Optional[int]
    oracle_qa: tuple[tuple[str, tuple[Element, ...], Element], ...]
    agent: Optional[Element] = None

    @property
    def consistent(self) -> bool:
        return self.fired  # a set fires exactly when it is consistent

    @property
    def conflicts(self) -> dict:
        return {} if self.fired else self.updates.conflicts()

    @property
    def fixpoint(self) -> bool:
        """Asked no oracle and can change nothing: an empty family, or a
        forced, consistent, empty set."""
        _, updates, fired, _, family_size, oracle_qa, _ = self  # one unpacking, not five reads
        return not oracle_qa and (family_size == 0 or (
            fired and not updates and family_size in (None, 1)
        ))


class RunTrace(syntax.Value):
    """A run: its initial state, its step records, why it stopped and where."""

    initial: State
    records: list[StepRecord]
    stop_reason: str
    final_state: State

    @property
    def states(self) -> list[State]:
        """The initial state and the state after each step, replayed."""
        return list(accumulate(self.records, replay_record, initial=self.initial))


def prepare_rule(program: Program) -> syntax.Rule:
    """Desugar and alpha-rename so the evaluator's preconditions hold."""
    return program.prepared


def check_appropriate(program: Program, state: State):
    """Raise ``VocabularyError`` unless the state interprets every name of
    the program, Self aside, as the program declares it."""
    for fn in program.vocabulary.names:
        if fn.name != "Self" and state.vocabulary.lookup(fn.name) != fn:
            raise VocabularyError(
                f"state does not interpret {fn.name} as the program declares"
            )


def _require_program(target) -> None:
    """``ModeError`` for a distributed spec, which only runs by agents."""
    if isinstance(target, DistributedSpec):
        raise ModeError("a distributed spec runs its agents with sequential_run")


def _require_inputs(target, initial, entry_point: str) -> None:
    """``ContractViolation`` unless ``target`` is a program or a spec and
    ``initial`` a state."""
    require(target, (Program, DistributedSpec), entry_point)
    require(initial, State, entry_point)


def resolutions(
    program: Program, state: State, oracle=None, footprint=None,
    agent: Element | None = None,
) -> tuple[list[UpdateSet], Optional[int]]:
    """The update sets one firing of the program at ``state`` may apply.

    A choice-free program has exactly one and no family size (None); a
    program with choose has its family's members, in their deterministic
    order, and their number.  With no oracle, external functions read as
    undef.  For an agent's move, the program is its module's: Self is
    bound to ``agent`` and the program sees only its own names, and a
    footprint also gets ``Mod(agent)``, which makes it the module's agent
    (the module name is static and nullary: no update writes it).  The
    rule is evaluated by the evaluator ``evaluator.prepared`` keeps for
    the program, the state's vocabulary and, for a move, the module's
    scope, so its contract is checked once for them.
    """
    if oracle is None and program.externals:
        oracle = OracleView(UndefOracle(), 1, state.reserve_next)
    rule, vocabulary, externals = program.prepared, state.vocabulary, program.externals
    if agent is None:
        found = prepared(rule, vocabulary, externals)(state, {}, oracle, footprint)
    else:
        if footprint is not None:
            footprint.locations.add(Location("Mod", (agent,)))
        evaluate = prepared(rule, vocabulary, externals, program.vocabulary, ("Self",))
        found = evaluate(state, {"Self": agent}, oracle, footprint)
    if program.has_choose:
        members = found.sorted_members()
        return members, len(members)
    return [found], None


def move(
    program: Program, state: State, chooser=None, *,
    oracle: Oracle | None = None, index: int = 1, agent: Element | None = None,
    footprint=None,
) -> tuple[State, StepRecord]:
    """Fire one resolution of the program at ``state`` and record the step:
    a sequential step, or with ``agent`` that agent's move.

    The chooser (``SeededChooser(0)`` if none) picks a member only from a
    family of more than one; an empty family fires nothing.  A program
    with no externals gets no oracle.
    """
    view = None
    if program.externals:
        view = OracleView(oracle or UndefOracle(), index, state.reserve_next)
    members, family_size = resolutions(program, state, view, footprint, agent)
    choice_index = None
    if family_size == 1:
        choice_index = 0
    elif family_size:
        choice_index = (chooser or SeededChooser(0)).choose(family_size)
    beta = members[choice_index or 0] if members else EMPTY_UPDATE_SET
    new_state, fired = state.fire_update_set(beta) if members else (state, False)
    oracle_qa = () if view is None else tuple(view.transcript)
    return new_state, StepRecord(index, beta, fired, choice_index, family_size, oracle_qa, agent)


def step(
    program: Program, state: State, oracle: Oracle | None = None, chooser=None, *,
    step_index: int = 1,
) -> tuple[State, StepRecord]:
    """Fire the program once; inconsistent update sets change nothing."""
    _require_program(program)
    _require_inputs(program, state, "step")
    return move(program, state, chooser, oracle=oracle, index=require_int(step_index, "step"))


def run(
    program: Program,
    initial: State,
    oracle: Oracle | None = None,
    chooser=None,
    max_steps: int = 100,
) -> RunTrace:
    """Run for at most ``max_steps`` steps, stopping early at a fixpoint.

    Without a chooser, choices come from ``SeededChooser(0)``, as with the
    CLI's default ``--seed 0``.  The inputs are checked once, here; each
    step is a ``move``.
    """
    if require_int(max_steps, "run") < 1:
        raise ScheduleError("max_steps must be positive")
    _require_inputs(program, initial, "run")
    if chooser is None:
        chooser = SeededChooser(0)
    check_appropriate(program, initial)
    _require_program(program)
    state, records, stop_reason = initial, [], "max-steps"
    for index in range(1, max_steps + 1):
        state, record = move(program, state, chooser, oracle=oracle, index=index)
        records.append(record)
        if record.fixpoint:
            stop_reason = "fixpoint"
            break
    return RunTrace(initial, records, stop_reason, state)


def replay_record(state: State, record: StepRecord) -> State:
    """Apply a recorded step to a state (bit-exact when states match)."""
    require(state, State, "replay_record")
    if not require(record, StepRecord, "replay_record").fired:
        return state
    new_state, fired = state.fire_update_set(record.updates)
    if not fired:
        raise EalgebraError("recorded update set no longer consistent")
    return new_state


# ---------------------------------------------------------------------------
# Bounded reachability


class Witness(syntax.Value):
    """A violating trace: the moves taken and the state that fails."""

    moves: list[str]
    state: State


class ReachReport(syntax.Value):
    states: list[tuple[State, int]]
    partial: bool
    violations: list[Witness]


class _Effect(NamedTuple):
    """What a move may write and what it read: the locations and table
    names its update sets write (all members of a family), its footprint,
    and whether it reads or writes a ``Reserve`` location."""

    writes: frozenset[Location]
    names: frozenset[str]
    footprint: Footprint
    reserve: bool

    @staticmethod
    def of(betas: Iterable[UpdateSet], footprint: Footprint) -> "_Effect":
        writes = frozenset().union(*(beta.locations() for beta in betas))
        names = frozenset(loc.fname for loc in writes)
        reads = {loc.fname for loc in footprint.locations}
        return _Effect(writes, names, footprint, "Reserve" in (names | reads))


def _footprints_conflict(a: _Effect, b: _Effect) -> bool:
    """Whether two moves may fail to commute: one writes a location the
    other writes or reads, or a table the other reads whole.  A ``Reserve``
    write moves ``reserve_next``, which no footprint records, so it also
    conflicts with every move that reads or writes a ``Reserve`` location,
    as import, duplicate and ``Reserve(x)`` do."""
    return not (
        a.writes.isdisjoint(b.writes)
        and a.writes.isdisjoint(b.footprint.locations)
        and b.writes.isdisjoint(a.footprint.locations)
        and a.names.isdisjoint(b.footprint.names)
        and b.names.isdisjoint(a.footprint.names)
        and not ("Reserve" in a.names and b.reserve)
        and not ("Reserve" in b.names and a.reserve)
    )


def move_label(move: tuple) -> str:
    """A witness's text for a move ``(agent, choice index, family size)``:
    a step's labels are ``step``, ``choice i`` and ``noop`` (empty family);
    agent x's are ``agent x``, ``agent x choice i`` and ``agent x (no move)``.
    """
    agent, choice_index, family_size = move
    tag = "" if agent is None else f"agent {format_element(agent)}"
    if family_size is None:
        return tag or "step"
    if choice_index is None:
        return f"{tag} (no move)" if tag else "noop"
    return f"{tag} choice {choice_index}".lstrip()


def successors(
    program: Program, state: State, agent: Element | None = None, shapes: dict | None = None,
) -> list[tuple[tuple, State, Optional[_Effect]]]:
    """Every (move, successor, effect) of one firing of the program at
    ``state``: a sequential step, or with ``agent`` that agent's move.

    A move is ``(agent, choice index, family size)``, as its ``StepRecord``
    holds them; an empty family has one, which changes nothing.  The
    resolutions are checked for firing (``State.checked``).  ``shapes``, a
    dict one enumeration owns for this mover, keeps them by ``_keep``, and
    under ``reserve_next`` too when a member withdraws from Reserve, for
    reuse at a state that holds the same values; never those of a program
    with externals.  The effect, one for all members, is None for a step
    and for a move evaluated without a footprint.
    """
    if program.externals:
        shapes = None
    if not shapes or (found := _recall(shapes, state)) is None:
        footprint = None if shapes is None else Footprint()
        members, family_size = resolutions(program, state, footprint=footprint, agent=agent)
        effect = None if footprint is None or agent is None else _Effect.of(members, footprint)
        found = [state.checked(member) for member in members], family_size, effect
        if footprint is not None:
            reserve = any(u.location.fname == "Reserve" for m in members for u in m)
            _keep(shapes, state, footprint, found, reserve)
    members, family_size, effect = found
    fired = [state._apply(pairs) if pairs else state for pairs in members] or [state]
    choices = range(family_size) if family_size else [None]
    return [((agent, i, family_size), nxt, effect) for i, nxt in zip(choices, fired)]


def _recall(shapes: dict, state: State):
    """What ``_keep`` kept in ``shapes`` for the values ``state`` holds, or None."""
    for (at, reserve), kept in shapes.items():
        if (found := kept.get(_held(state, at, reserve))) is not None:
            return found
    return None


def _keep(shapes: dict, state: State, footprint: Footprint, found, reserve: bool = False):
    """Keep ``found`` in ``shapes`` under the values ``state`` holds at the
    locations ``footprint`` records (and ``reserve_next`` when ``reserve``):
    an evaluation reads nothing else, so a state holding the same values
    has the same result (read-set validation, Acar, *Self-Adjusting
    Computation*, 2005).  Not kept: one that read a table whole or a
    location outside the tables (as ``Reserve(x)``).

    A static location none of whose arguments is a reserve element is
    left out of the key: no state of one enumeration changes it, since
    the only update of a static name is a ``StaticMirror`` of
    ``duplicate``, at a location holding the fresh copy.  A static
    location at a reserve argument stays in the key, as duplicates in
    two branches may mirror different values onto the same serial."""
    if footprint.names:
        return
    vocabulary, at, held = state.vocabulary, [], []
    for fname, args in sorted(footprint.locations):
        how = resolve(vocabulary, fname, len(args))
        if how.kind != "table":
            return
        if vocabulary.lookup(fname).is_static and all(a.kind != "reserve" for a in args):
            continue
        at.append((fname, args, how.value))
        held.append(how.read(state, args))
    if reserve:
        held.append(state.reserve_next)
    shapes.setdefault((tuple(at), reserve), {})[tuple(held)] = found


def _held(state: State, at, reserve: bool) -> tuple:
    """The values ``state`` holds at the ``(name, args, default)`` tabled
    locations ``at``, read as a compiled tabled read reads them, and its
    ``reserve_next`` when ``reserve``."""
    tables = state._tables
    held = [
        default if (table := tables.get(fname)) is None else table.get(args, default)
        for fname, args, default in at
    ]
    return (*held, state.reserve_next) if reserve else tuple(held)


def _instance(state: State, at: int, index: dict,
              guard: syntax.Guard, env: dict, shapes: dict) -> bool:
    """The value of guard instance ``at`` at ``state``: kept in ``shapes``
    (as a 1-tuple, so that a kept False is found), else evaluated, kept,
    and filed in ``index`` under each location it read, a ``Reserve``
    location under ``Reserve``.  ``_split`` splits at every quantifier, so
    an instance reads no table whole."""
    found = _recall(shapes, state)
    if found is None:
        footprint = Footprint()
        found = (eval_guard(state, env, guard, footprint=footprint),)
        _keep(shapes, state, footprint, found)
        for loc in footprint.locations:
            index.setdefault("Reserve" if loc.fname == "Reserve" else loc, set()).add(at)
    return found[0]


def _touched(index: dict, effect: _Effect) -> list[int]:
    """The instances ``index`` files under what ``effect`` writes, ascending."""
    return sorted(set().union(*(index.get(w, ()) for w in (*effect.writes, *effect.names))))


def _split(guard: syntax.Guard, state: State, env: dict, tables: dict,
           instances: list) -> Callable[[list], bool]:
    """Split ``guard`` at ``state`` into instances, appended to
    ``instances`` as ``(guard, env, shapes)``, and return its skeleton: the
    function of the instance values that gives the guard's.  The skeleton
    is the connectives and quantifiers above the quantifier-free parts; a
    quantifier over a universe, whose table at ``state`` joins ``tables``
    under its name, has one instance of its body per element."""
    if isinstance(guard, syntax.QuantGuard):
        tables[guard.universe] = state._tables.get(guard.universe)
        holds = any if guard.kind == "exists" else all
        parts = [
            _split(guard.body, state, {**env, guard.var: a}, tables, instances)
            for a in state.extent(guard.universe)
        ]
        return lambda values: holds([part(values) for part in parts])
    if any(isinstance(node, syntax.QuantGuard) for node in syntax.nodes(guard)):
        parts = [_split(sub, state, env, tables, instances) for sub in guard.operands]
        if guard.op == "not":
            return lambda values: not parts[0](values)
        a, b = parts
        if guard.op == "and":
            return lambda values: a(values) & b(values)
        if guard.op == "or":
            return lambda values: a(values) | b(values)
        return lambda values: (not a(values)) | b(values)
    at = len(instances)
    instances.append((guard, env, {}))
    return lambda values: values[at]


def enumerate_reachable(
    target: Program | DistributedSpec,
    initial: State,
    depth: int,
    *,
    budget: int = 20000,
    predicate: syntax.Guard | None = None,
) -> ReachReport:
    """Exhaustively close the step relation up to ``depth``.

    For a distributed spec the branching is over single-agent moves
    (sequential interleavings) plus each agent's choice resolutions.
    States are deduplicated up to isomorphism (reserve renaming).  A
    move's results are kept under the values the state holds at what the
    move read, less the static locations no move can write, and reused
    at every state that holds the same values there (``successors``,
    ``_keep``).  Violations of the safety predicate are reported with
    witness traces.

    The predicate is checked by the same rule: at the initial state it is
    evaluated whole, then ``_split`` breaks it into instances, each with
    its own kept values (``_instance``).  An instance is looked up by the
    values it read, and only a miss is evaluated.  Each evaluation files
    the instance in ``index`` under what it read, the dynamic dependence
    graph of Acar's self-adjusting computation, so a state a move finds
    keeps its parent's instance values and looks up only the instances
    filed under the move's writes (``_touched``), in ascending order: the
    others read the same values as at the parent.  A state found by a
    step, or from a state evaluated whole, looks up every instance.
    Values kept or inherited raised nothing, so the first error raised is
    a whole evaluation's.  On the ring of 10 to depth 6 with the guard
    that no two neighbours eat, that is 324 lookups, not 1,220.  The
    split holds while the tables of the universes it quantifies over are
    those of the initial state; a state where one differs evaluates the
    predicate whole.

    A state a move discovers gets a sleep set (Godefroid, LNCS 1032,
    1996): the agents asleep at its parent or expanded there before that
    move whose effects do not conflict with it (``_footprints_conflict``).
    Their moves are not evaluated when the state is expanded.  Such a move
    commutes with the discovering one (Corollary 1), so it reaches a state
    the other order reached from a state expanded earlier; breadth first,
    that state is already seen, and the report is the one every move gives.

    The frontier holds a state's key, sleep set and guard vector until the
    state is expanded; ``seen`` keeps each state, its depth, its parent and
    the move from there, labelled only when a witness is built.
    """
    from . import distributed  # cycle: distributed builds on runner

    require_int(depth, "enumerate_reachable")
    if require_int(budget, "enumerate_reachable") < 1 or depth < 0:
        raise ScheduleError("budget must be positive and depth not negative")

    _require_inputs(target, initial, "enumerate_reachable")
    memo: dict = {}  # a mover's agent -> its kept results, within this call only
    # The (agent, program) pairs that move: a program's one, or a spec's
    # agents, listed again only at a state whose Mod table is not ``listed``.
    # Firing copies only the tables it writes, so a state shares its
    # parent's table, and its agents, unless a move wrote a Mod location;
    # ``listed`` holds the table so that its identity stays valid.
    movers = listed = None
    is_dist = isinstance(target, DistributedSpec)
    if is_dist:
        by_element = distributed.validate_spec_state(target, initial)
    else:
        check_appropriate(target, initial)
        movers = [(None, target)]

    plan = None  # the skeleton, the universes' tables and the instances
    index: dict = {}  # a location, or "Reserve" -> the instances that read it

    def check(key, state, parent=None, effect=None):
        """Record a violation at ``state``, found by a move with ``effect``
        from a state whose guard vector is ``parent``, and return the
        state's guard vector: its instance values and verdict, or None
        when the predicate was evaluated whole."""
        nonlocal plan
        if predicate is None:
            return None
        if plan is None or any(state._tables.get(n) is not t for n, t in plan[1].items()):
            holds, vector = eval_guard(state, None, predicate), None
            if plan is None:  # split once the whole evaluation has compiled it
                tables, instances = {}, []
                plan = _split(predicate, state, {}, tables, instances), tables, instances
        else:
            skeleton, _, instances = plan
            if parent is None or effect is None:
                values, holds = [None] * len(instances), None
                touched = range(len(instances))
            else:
                values, holds = list(parent[0]), parent[1]
                touched = _touched(index, effect)
            for at in touched:
                value = _instance(state, at, index, *instances[at])
                if value != values[at]:
                    values[at], holds = value, None
            if holds is None:  # no verdict inherited, or a value changed
                holds = skeleton(values)
            vector = values, holds
        if not holds:
            violations.append(witness(key))
        return vector

    key0 = initial.canonical_key()
    # key -> (state, depth, parent, move), in discovery order
    seen = {key0: (initial, 0, None, None)}
    violations: list[Witness] = []

    def witness(key) -> Witness:
        moves, at = [], key
        while seen[at][2] is not None:
            moves.append(move_label(seen[at][3]))
            at = seen[at][2]
        return Witness(moves=moves[::-1], state=seen[key][0])

    def report(partial: bool) -> ReachReport:
        return ReachReport([(s, d) for s, d, _, _ in seen.values()], partial, violations)

    frontier = deque([(key0, {}, check(key0, initial))])  # (key, sleep set, guard vector)
    for level in range(1, depth + 1):
        for _ in range(len(frontier)):
            key, asleep, vector = frontier.popleft()
            state = seen[key][0]
            if is_dist and (movers is None or state._tables.get("Mod") is not listed):
                listed = state._tables.get("Mod")
                movers = [
                    (agent.element, agent.program)
                    for agent in distributed.agents_of(target, state, by_element)
                ]
            done = dict(asleep)  # asleep here, or an agent expanded before
            for agent, program in movers:
                if agent in asleep:
                    continue
                shapes = memo.setdefault(agent, {})
                for move, nxt, effect in successors(program, state, agent, shapes):
                    nkey = nxt.canonical_key()
                    if nkey not in seen:
                        if len(seen) >= budget:
                            return report(True)
                        sleep = {} if effect is None else {
                            other: e for other, e in done.items()
                            if other != agent and not _footprints_conflict(e, effect)
                        }
                        seen[nkey] = (nxt, level, key, move)
                        frontier.append((nkey, sleep, check(nkey, nxt, vector, effect)))
                    if effect is not None:
                        done[agent] = effect
        if not frontier:
            break
    return report(False)


# ---------------------------------------------------------------------------
# Trace serialization


_quote = json.encoder.encode_basestring_ascii  # json.dumps's own escaper


def _element_json(e: Element) -> str:
    """An element as a quoted ``tag:value`` string."""
    kind, value = e
    return _quote(f"{ELEMENT_TAGS[kind]}{value}")


def _elements_json(elements) -> str:
    return "[" + ", ".join(map(_element_json, elements)) + "]"


_LITERALS = {None: "null", True: "true", False: "false"}


def _scalar_json(value) -> str:
    """``json.dumps(value)``, written directly for None, a bool and an int."""
    if value is None or type(value) is bool:
        return _LITERALS[value]
    return repr(value) if type(value) is int else json.dumps(value)


def _update_json(u: Update) -> str:
    (fname, args), value = u
    mirror = ', "mirror": true' if isinstance(u, StaticMirror) else ""
    return (
        f'{{"args": {_elements_json(args)}, "f": {_quote(fname)}{mirror}, '
        f'"value": {_element_json(value)}}}'
    )


def _conflict_lines(conflicts: dict) -> list[str]:
    return sorted(
        f"{loc!r} in {{{', '.join(sorted(format_element(v) for v in vals))}}}"
        for loc, vals in conflicts.items()
    )


def _decode_name(name) -> str:
    if not isinstance(name, str):
        raise TypeError(f"function name {name!r} is not a string")
    return name


def _decode_update(d: dict) -> Update:
    loc = Location(_decode_name(d["f"]), tuple(decode_element(a) for a in d["args"]))
    value = decode_element(d["value"])
    return StaticMirror(loc, value) if d.get("mirror") else Update(loc, value)


def record_to_json(record: StepRecord) -> str:
    """One line of a records trace, byte for byte what ``json.dumps(payload,
    sort_keys=True)`` gives for the record's payload, written directly:
    the keys in sorted order, ``", "`` and ``": "`` as separators, and
    every string through ``json``'s ASCII escaper."""
    index, beta, fired, choice_index, family_size, oracle_qa, agent = record
    agent = "" if agent is None else f'"agent": {_element_json(agent)}, '
    choice = conflicts = family = ""
    if choice_index is not None or family_size is not None:
        choice = f'"choice": {_scalar_json(choice_index)}, '
        family = f'"family": {_scalar_json(family_size)}, '
    if clashes := record.conflicts:
        conflicts = f'"conflicts": [{", ".join(map(_quote, _conflict_lines(clashes)))}], '
    oracle = ", ".join(
        f"[{_quote(fname)}, {_elements_json(args)}, {_element_json(v)}]"
        for fname, args, v in oracle_qa
    )
    updates = ", ".join(map(_update_json, beta.sorted_updates()))
    fired = _scalar_json(fired)  # and consistent: a set fires exactly when it is consistent
    return (
        f'{{{agent}{choice}{conflicts}"consistent": {fired}, {family}'
        f'"fired": {fired}, "oracle": [{oracle}], '
        f'"step": {_scalar_json(index)}, "updates": [{updates}]}}'
    )


def record_from_json(text: str) -> StepRecord:
    """The step record of one line of a records trace (``record_to_json``);
    ``ParseError`` for a line that is not one.  A step is consistent when
    it fired, and the conflicts of one that did not fire are those of its
    update set; the line must say exactly these."""
    try:
        d = json.loads(text)
        record = StepRecord(
            index=d["step"],
            updates=UpdateSet(_decode_update(u) for u in d["updates"]),
            fired=d["fired"],
            choice_index=d.get("choice"),
            family_size=d.get("family"),
            oracle_qa=tuple(
                (_decode_name(f), tuple(decode_element(a) for a in args), decode_element(v))
                for f, args, v in d.get("oracle", [])
            ),
            agent=decode_element(d["agent"]) if "agent" in d else None,
        )
        listed, consistent = d.get("conflicts", []), d["consistent"]
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ParseError(f"bad step record: {type(exc).__name__}: {exc}") from None
    expected = _conflict_lines(record.conflicts)
    if listed != expected:
        raise ParseError(
            f"bad step record: conflicts {listed} are not {expected}, those of its update set"
        )
    if _scalar_json(consistent) != _scalar_json(record.fired):
        raise ParseError(f"bad step record: consistent {consistent!r} is not fired {record.fired!r}")
    return record


def render_trace(trace: RunTrace, fmt: str = "text", header: dict | None = None) -> str:
    """Deterministic trace rendering; identical runs give identical bytes."""
    require(trace, RunTrace, "render_trace")
    if fmt == "records":
        lines = []
        if header:
            lines.append(json.dumps({"trace": header}, sort_keys=True))
        lines.extend(record_to_json(r) for r in trace.records)
        lines.append(json.dumps({"stop": trace.stop_reason}, sort_keys=True))
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ContractViolation(f"render_trace takes the format text or records, not {fmt!r}")
    lines = []
    if header:
        meta = " ".join(f"{k}={header[k]}" for k in sorted(header))
        lines.append(f"# trace {meta}")
    for r in trace.records:
        bits = [f"step {r.index}"]
        if r.agent is not None:
            bits.append(f"agent={format_element(r.agent)}")
        if r.family_size is not None:
            bits.append(f"family={r.family_size}")
        if r.choice_index is not None:
            bits.append(f"choice={r.choice_index}")
        bits.append(f"consistent={'yes' if r.consistent else 'no'}")
        bits.append(f"fired={'yes' if r.fired else 'no'}")
        lines.append(" ".join(bits))
        for u in r.updates.sorted_updates():
            kind = "mirror" if isinstance(u, StaticMirror) else "update"
            lines.append(
                f"  {kind} {u.location!r} := {format_element(u.value)}"
            )
        clashes = sorted(r.conflicts.items(), key=lambda kv: _flat_key([kv[0].fname], kv[0].args))
        for loc, vals in clashes:
            cands = ", ".join(sorted(format_element(v) for v in vals))
            lines.append(f"  conflict {loc!r} in {{{cands}}}")
        for fname, args, value in r.oracle_qa:
            rendered = ", ".join(format_element(a) for a in args)
            lines.append(f"  oracle {fname}({rendered}) = {format_element(value)}")
    lines.append(f"stop {trace.stop_reason}")
    return "\n".join(lines) + "\n"
