"""Quasi-sequential steps and the successors of a family, kept as test
oracles.

A quasi-sequential step fires several agents at once, as the union of
their update sets at one state; ``successor_states`` fires each member of
a family.  The engine needs neither: agents move one at a time, and
``runner`` fires the member a chooser picks.  Tests use them to compare
simultaneous with interleaved moves and the two family semantics.
Besides the package's public API, they import the engine's
``distributed.scheduled_agent`` and ``runner.resolutions``.
"""

from __future__ import annotations

from typing import Iterable

from ealgebra import (
    DistributedSpec,
    Element,
    ModeError,
    State,
    UpdateFamily,
    UpdateSet,
    validate_spec_state,
)
from ealgebra.distributed import scheduled_agent
from ealgebra.runner import resolutions

from globaloracle import GlobalFamily


def quasi_move_updates(
    spec: DistributedSpec, state: State, agents: Iterable[Element]
) -> UpdateSet:
    """Union of the agents' update sets at the same state."""
    union = UpdateSet()
    by_element = validate_spec_state(spec, state)
    for element in agents:
        program = scheduled_agent(spec, by_element, state, element)
        if program.has_choose:
            module = next(name for name, p in spec.module_list if p is program)
            raise ModeError(f"quasi-sequential steps need deterministic agents ({module})")
        members, _ = resolutions(program, state, agent=element)
        union = UpdateSet(union | members[0])
    return union


def quasi_sequential_step(
    spec: DistributedSpec, state: State, agents: Iterable[Element]
) -> State:
    """Fire a collection of agents as one simultaneous update set."""
    union = quasi_move_updates(spec, state, agents)
    new_state, _ = state.fire_update_set(union)
    return new_state


def successor_states(state: State, family: UpdateFamily | GlobalFamily) -> set[State]:
    """Every state reachable by firing one member of the family.

    The empty family and the bottom member of a global family both leave
    the state unchanged.
    """
    bottom = isinstance(family, GlobalFamily) and family.contains_bottom
    members = family.sets if isinstance(family, GlobalFamily) else family
    out = {state.fire_update_set(member)[0] for member in members}
    if not members or bottom:
        out.add(state)
    return out
