"""Sequential execution: steps, runs, replay and bounded reachability.

A sequential step and an agent's move are one act, written once here:
``resolutions`` gives the update sets one firing of a program may apply
at a state (for an agent, its view), ``move`` picks one with the chooser
and ``fire_and_record`` applies it to the global state and records it;
``successors`` fires every resolution instead, for reachability.  The
distributed runs and moves call these.

External functions are never written into a state's tables; every step
reads them through a per-step memoizing oracle view, so a query asked
twice within one step returns one value while later steps may see fresh
answers.  Step records capture the fired update set, the consistency
flag, the oracle transcript and the choice index, which is enough for
bit-exact replay.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import syntax
from .errors import EalgebraError, OracleError, VocabularyError
from .evaluator import eval_guard, nupdates, updates
from .parser import parse_guard_text
from .state import (
    EMPTY_UPDATE_SET,
    UNDEF,
    Element,
    Location,
    State,
    StaticMirror,
    Update,
    UpdateSet,
    format_element,
)
from .stateio import parse_element
from .syntax import DistributedSpec, Program
from .vocabulary import Vocabulary


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


class ScriptedOracle(Oracle):
    """Answers from a script of ``step k: e(args) = value`` lines."""

    def __init__(self, answers: dict[tuple[int, str, tuple[Element, ...]], Element]):
        self.answers = dict(answers)

    @classmethod
    def parse(cls, text: str, vocabulary: Vocabulary | None = None) -> "ScriptedOracle":
        import re

        answers = {}
        pattern = re.compile(
            r"^step\s+(\d+)\s*:\s*([A-Za-z_][A-Za-z0-9_]*'*)\s*"
            r"(?:\(([^()]*)\))?\s*=\s*(\S+)$"
        )
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = pattern.match(line)
            if m is None:
                raise OracleError(f"oracle script line {lineno}: bad entry {line!r}")
            step = int(m.group(1))
            fname = m.group(2)
            raw_args = m.group(3)
            args = ()
            if raw_args is not None and raw_args.strip():
                args = tuple(parse_element(p, vocabulary) for p in raw_args.split(","))
            answers[(step, fname, args)] = parse_element(m.group(4), vocabulary)
        return cls(answers)

    @classmethod
    def load(cls, path, vocabulary: Vocabulary | None = None) -> "ScriptedOracle":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read(), vocabulary)

    def resolve(self, fname, args, step_index):
        return self.answers.get((step_index, fname, args), UNDEF)


class CallableOracle(Oracle):
    def __init__(self, fn: Callable[[str, tuple[Element, ...], int], Element]):
        self.fn = fn

    def resolve(self, fname, args, step_index):
        return self.fn(fname, args, step_index)


class OracleView:
    """Per-step memo over an oracle: ask once, save the result, reuse it."""

    def __init__(self, oracle: Oracle, step_index: int):
        self.oracle = oracle
        self.step_index = step_index
        self.memo: dict[tuple[str, tuple[Element, ...]], Element] = {}
        self.transcript: list[tuple[str, tuple[Element, ...], Element]] = []

    def __call__(self, fname: str, args: tuple[Element, ...]) -> Element:
        key = (fname, args)
        if key not in self.memo:
            value = self.oracle.resolve(fname, args, self.step_index)
            if not isinstance(value, Element):
                raise OracleError(f"{fname}: oracle returned a non-element")
            self.memo[key] = value
            self.transcript.append((fname, args, value))
        return self.memo[key]


# ---------------------------------------------------------------------------
# Steps and traces


@dataclass
class StepRecord:
    index: int
    updates: UpdateSet
    consistent: bool
    fired: bool
    conflicts: dict
    choice_index: Optional[int]
    family_size: Optional[int]
    oracle_qa: tuple[tuple[str, tuple[Element, ...], Element], ...]
    agent: Optional[Element] = None
    fixpoint: bool = False


@dataclass
class RunTrace:
    states: list[State]
    records: list[StepRecord]
    stop_reason: str

    @property
    def final_state(self) -> State:
        return self.states[-1]


def prepare_rule(program: Program) -> syntax.Rule:
    """Desugar and alpha-rename so the evaluator's preconditions hold."""
    return program.prepared


def _check_appropriate(program: Program, state: State):
    for fn in program.vocabulary.names:
        if state.vocabulary.lookup(fn.name) != fn:
            raise VocabularyError(
                f"state does not interpret {fn.name} as the program declares"
            )


def resolutions(
    program: Program, local: State, oracle=None, footprint=None
) -> tuple[list[UpdateSet], Optional[int]]:
    """The update sets one firing of the program at ``local`` may apply.

    A choice-free program has exactly one and no family size (None); a
    program with choose has its family's members, in their deterministic
    order, and their number.  The family never holds bottom.  With no
    oracle, external functions read as undef.
    """
    if oracle is None and program.externals:
        oracle = OracleView(UndefOracle(), 1)
    kwargs = {"oracle": oracle, "externals": program.externals, "footprint": footprint}
    if program.has_choose:
        members = nupdates(program.prepared, local, **kwargs).sorted_members()
        return members, len(members)
    return [updates(program.prepared, local, **kwargs)], None


def fire_and_record(
    state: State, beta: UpdateSet | None, *, index: int, agent: Element | None = None,
    choice_index: int | None = None, family_size: int | None = None, oracle_qa=(),
) -> tuple[State, StepRecord]:
    """Fire ``beta`` against ``state`` and record the step.

    ``beta`` None stands for an empty family: nothing fires and the step is
    inconsistent.  A step that asked no oracle is a fixpoint when it can
    change nothing: an empty family, or a forced, consistent, empty set.
    """
    if beta is None:
        new_state, fired, conflicts, beta = state, False, {}, EMPTY_UPDATE_SET
        consistent, fixpoint = False, not oracle_qa
    else:
        conflicts = beta.conflicts()
        new_state, fired = state.fire_update_set(beta)
        consistent = not conflicts
        fixpoint = (
            not (oracle_qa or beta.updates) and fired and family_size in (None, 1)
        )
    return new_state, StepRecord(
        index=index, updates=beta, consistent=consistent, fired=fired,
        conflicts=conflicts, choice_index=choice_index, family_size=family_size,
        oracle_qa=oracle_qa, agent=agent, fixpoint=fixpoint,
    )


def move(
    program: Program, state: State, local: State, chooser=None, *,
    oracle: Oracle | None = None, index: int = 1, agent: Element | None = None,
    footprint=None,
) -> tuple[State, StepRecord]:
    """Fire one resolution of the program at ``local`` against ``state``.

    A sequential step passes the state itself as ``local``; an agent passes
    its view, so its module's program reads the view and the update set
    changes the global state.  The chooser (``SeededChooser(0)`` if none)
    picks a member only from a family of more than one.
    """
    view = OracleView(oracle or UndefOracle(), index)
    members, family_size = resolutions(program, local, view, footprint)
    choice_index = None
    if family_size == 1:
        choice_index = 0
    elif family_size:
        choice_index = (chooser or SeededChooser(0)).choose(family_size)
    return fire_and_record(
        state, members[choice_index or 0] if members else None, index=index,
        agent=agent, choice_index=choice_index, family_size=family_size,
        oracle_qa=tuple(view.transcript),
    )


def step(
    program: Program, state: State, oracle: Oracle | None = None, chooser=None, *,
    step_index: int = 1,
) -> tuple[State, StepRecord]:
    """Fire the program once; inconsistent update sets change nothing."""
    return move(program, state, state, chooser, oracle=oracle, index=step_index)


def run(
    program: Program,
    initial: State,
    oracle: Oracle | None = None,
    chooser=None,
    max_steps: int = 100,
) -> RunTrace:
    """Run for at most ``max_steps`` steps, stopping early at a fixpoint.

    Without a chooser, choices come from ``SeededChooser(0)``, as with the
    CLI's default ``--seed 0``.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if chooser is None:
        chooser = SeededChooser(0)
    _check_appropriate(program, initial)
    trace = RunTrace(states=[initial], records=[], stop_reason="max-steps")
    state = initial
    for index in range(1, max_steps + 1):
        state, record = step(program, state, oracle, chooser, step_index=index)
        trace.states.append(state)
        trace.records.append(record)
        if record.fixpoint:
            trace.stop_reason = "fixpoint"
            break
    return trace


def replay_record(state: State, record: StepRecord) -> State:
    """Apply a recorded step to a state (bit-exact when states match)."""
    if not record.fired:
        return state
    new_state, fired = state.fire_update_set(record.updates)
    if not fired:
        raise EalgebraError("recorded update set no longer consistent")
    return new_state


# ---------------------------------------------------------------------------
# Bounded reachability


@dataclass
class Witness:
    """A violating trace: the moves taken and the state that fails."""

    moves: list[str]
    state: State


@dataclass
class ReachReport:
    states: list[tuple[State, int]]
    partial: bool
    violations: list[Witness]
    explored: int = 0


def successors(
    program: Program, state: State, local: State, tag: str | None = None
) -> list[tuple[str, State]]:
    """Every (move label, successor) of one firing of the program at ``local``.

    A program's labels are ``step``, ``choice i`` and ``noop`` (empty
    family); an agent passes its ``tag`` (``agent x``), giving ``agent x``,
    ``agent x choice i`` and ``agent x (no move)``.
    """
    members, family_size = resolutions(program, local)
    if family_size is None:
        return [(tag or "step", state.fire_update_set(members[0])[0])]
    if not members:
        return [(f"{tag} (no move)" if tag else "noop", state)]
    prefix = f"{tag} " if tag else ""
    return [
        (f"{prefix}choice {i}", state.fire_update_set(member)[0])
        for i, member in enumerate(members)
    ]


def enumerate_reachable(
    target: Program | DistributedSpec,
    initial: State,
    depth: int,
    *,
    budget: int = 20000,
    predicate: syntax.Guard | str | None = None,
) -> ReachReport:
    """Exhaustively close the step relation up to ``depth``.

    For a distributed spec the branching is over single-agent moves
    (sequential interleavings) plus each agent's choice resolutions.
    States are deduplicated up to isomorphism (reserve renaming).
    Violations of the safety predicate are reported with witness traces.
    """
    from . import distributed  # cycle: distributed builds on runner

    if isinstance(predicate, str):
        predicate = parse_guard_text(predicate, initial.vocabulary)

    is_dist = isinstance(target, DistributedSpec)
    if is_dist:
        distributed.validate_spec_state(target, initial)

    def expand(state):
        if is_dist:
            return distributed.move_successors(target, state)
        return successors(target, state, state)

    def check(state) -> bool:
        return predicate is None or eval_guard(state, None, predicate)

    key0 = initial.canonical_key()
    seen = {key0: (initial, 0, None, None)}  # key -> (state, depth, parent, move)
    order = [key0]
    violations: list[Witness] = []
    partial = False

    def witness(key) -> Witness:
        moves = []
        at = key
        while seen[at][2] is not None:
            moves.append(seen[at][3])
            at = seen[at][2]
        moves.reverse()
        return Witness(moves=moves, state=seen[key][0])

    if not check(initial):
        violations.append(witness(key0))
    frontier = [key0]
    while frontier:
        next_frontier = []
        for key in frontier:
            state, level = seen[key][0], seen[key][1]
            if level >= depth:
                continue
            for label, nxt in expand(state):
                nkey = nxt.canonical_key()
                if nkey in seen:
                    continue
                if len(seen) >= budget:
                    partial = True
                    break
                seen[nkey] = (nxt, level + 1, key, label)
                order.append(nkey)
                if not check(nxt):
                    violations.append(witness(nkey))
                next_frontier.append(nkey)
            if partial:
                break
        if partial:
            break
        frontier = next_frontier
    return ReachReport(
        states=[(seen[k][0], seen[k][1]) for k in order],
        partial=partial,
        violations=violations,
        explored=len(seen),
    )


# ---------------------------------------------------------------------------
# Trace serialization


def _encode_element(e: Element) -> str:
    tag = {"logic": "l", "named": "n", "int": "i", "reserve": "r"}[e.kind]
    return f"{tag}:{e.value}"


def _decode_element(text: str) -> Element:
    tag, _, raw = text.partition(":")
    if tag == "l":
        return Element("logic", raw)
    if tag == "n":
        return Element.named(raw)
    if tag == "i":
        return Element.integer(int(raw))
    if tag == "r":
        return Element.reserve(int(raw))
    raise EalgebraError(f"bad element encoding: {text}")


def _encode_update(u: Update) -> dict:
    out = {
        "f": u.location.fname,
        "args": [_encode_element(a) for a in u.location.args],
        "value": _encode_element(u.value),
    }
    if isinstance(u, StaticMirror):
        out["mirror"] = True
    return out


def _decode_update(d: dict) -> Update:
    loc = Location(d["f"], tuple(_decode_element(a) for a in d["args"]))
    value = _decode_element(d["value"])
    return StaticMirror(loc, value) if d.get("mirror") else Update(loc, value)


def record_to_json(record: StepRecord) -> str:
    payload = {
        "step": record.index,
        "updates": [_encode_update(u) for u in record.updates.sorted_updates()],
        "consistent": record.consistent,
        "fired": record.fired,
        "oracle": [
            [fname, [_encode_element(a) for a in args], _encode_element(v)]
            for fname, args, v in record.oracle_qa
        ],
    }
    if record.choice_index is not None or record.family_size is not None:
        payload["choice"] = record.choice_index
        payload["family"] = record.family_size
    if record.agent is not None:
        payload["agent"] = _encode_element(record.agent)
    if record.conflicts:
        payload["conflicts"] = sorted(
            f"{loc!r} in {{{', '.join(sorted(format_element(v) for v in vals))}}}"
            for loc, vals in record.conflicts.items()
        )
    return json.dumps(payload, sort_keys=True)


def record_from_json(text: str) -> StepRecord:
    d = json.loads(text)
    return StepRecord(
        index=d["step"],
        updates=UpdateSet(frozenset(_decode_update(u) for u in d["updates"])),
        consistent=d["consistent"],
        fired=d["fired"],
        conflicts={},
        choice_index=d.get("choice"),
        family_size=d.get("family"),
        oracle_qa=tuple(
            (f, tuple(_decode_element(a) for a in args), _decode_element(v))
            for f, args, v in d.get("oracle", [])
        ),
        agent=_decode_element(d["agent"]) if "agent" in d else None,
    )


def render_trace(trace: RunTrace, fmt: str = "text", header: dict | None = None) -> str:
    """Deterministic trace rendering; identical runs give identical bytes."""
    if fmt == "records":
        lines = []
        if header:
            lines.append(json.dumps({"trace": header}, sort_keys=True))
        lines.extend(record_to_json(r) for r in trace.records)
        lines.append(json.dumps({"stop": trace.stop_reason}, sort_keys=True))
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown trace format: {fmt}")
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
        for loc, vals in sorted(r.conflicts.items(), key=lambda kv: kv[0].sort_key()):
            cands = ", ".join(sorted(format_element(v) for v in vals))
            lines.append(f"  conflict {loc!r} in {{{cands}}}")
        for fname, args, value in r.oracle_qa:
            rendered = ", ".join(format_element(a) for a in args)
            lines.append(f"  oracle {fname}({rendered}) = {format_element(value)}")
    lines.append(f"stop {trace.stop_reason}")
    return "\n".join(lines) + "\n"
