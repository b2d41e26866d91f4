"""Firing one update, or one withdrawal from the reserve.

The state API fires whole update sets; these helpers fire a one-update
set, so tests can state single writes and withdrawals briefly.
"""

from __future__ import annotations

from ealgebra import FALSE, Element, Location, State, Update, UpdateSet


def fire_one(state: State, update: Update) -> State:
    """``state`` after the update set ``{update}``; validation errors raise."""
    after, fired = state.fire_update_set(UpdateSet([update]))
    assert fired
    return after


def withdraw(state: State) -> tuple[State, Element]:
    """``state`` after ``Reserve(r) := false`` for its next reserve element
    ``r``, and ``r``."""
    element = Element.reserve(state.reserve_next)
    return fire_one(state, Update(Location("Reserve", (element,)), FALSE)), element
