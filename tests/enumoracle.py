"""Reference reachability: every move evaluated afresh at every state.

``enumerate_reference`` closes the step relation breadth first as
``runner.enumerate_reachable`` does, but keeps no move result from one
state to the next: every expanded state is validated against the spec,
lists its agents, and evaluates each agent's module program (or the
sequential program) with ``resolutions``, then fires every member with
``State.fire_update_set``.  ``summary`` is what the two must agree on.
"""

from __future__ import annotations

from ealgebra import ReachReport, eval_guard, format_state
from ealgebra.distributed import agents_of, validate_spec_state
from ealgebra.runner import Witness, resolutions
from ealgebra.state import format_element
from ealgebra.syntax import DistributedSpec


def reference_successors(program, state, agent=None):
    members, family_size = resolutions(program, state, agent=agent)
    tag = None if agent is None else f"agent {format_element(agent)}"
    if family_size is None:
        return [(tag or "step", state.fire_update_set(members[0])[0])]
    if not members:
        return [(f"{tag} (no move)" if tag else "noop", state)]
    prefix = f"{tag} " if tag else ""
    return [
        (f"{prefix}choice {i}", state.fire_update_set(member)[0])
        for i, member in enumerate(members)
    ]


def expand(target, state):
    if isinstance(target, DistributedSpec):
        return [
            successor
            for agent in agents_of(target, state)
            for successor in reference_successors(agent.program, state, agent.element)
        ]
    return reference_successors(target, state)


def enumerate_reference(target, initial, depth, *, budget=20000, predicate=None):
    if isinstance(target, DistributedSpec):
        validate_spec_state(target, initial)

    def holds(state):
        return predicate is None or eval_guard(state, None, predicate)

    key0 = initial.canonical_key()
    seen = {key0: (initial, 0, None, None)}
    order, violations, partial = [key0], [], False

    def witness(key):
        moves, at = [], key
        while seen[at][2] is not None:
            moves.append(seen[at][3])
            at = seen[at][2]
        return Witness(moves=moves[::-1], state=seen[key][0])

    if not holds(initial):
        violations.append(witness(key0))
    frontier = [key0]
    while frontier and not partial:
        next_frontier = []
        for key in frontier:
            state, level = seen[key][0], seen[key][1]
            if level >= depth:
                continue
            for label, nxt in expand(target, state):
                nkey = nxt.canonical_key()
                if nkey in seen:
                    continue
                if len(seen) >= budget:
                    partial = True
                    break
                seen[nkey] = (nxt, level + 1, key, label)
                order.append(nkey)
                if not holds(nxt):
                    violations.append(witness(nkey))
                next_frontier.append(nkey)
            if partial:
                break
        frontier = next_frontier
    return ReachReport(
        states=[(seen[k][0], seen[k][1]) for k in order],
        partial=partial,
        violations=violations,
    )


def summary(report: ReachReport):
    """States with their depths in report order, witnesses and partial."""
    return (
        [(format_state(state), depth) for state, depth in report.states],
        [(w.moves, format_state(w.state)) for w in report.violations],
        report.partial,
    )
