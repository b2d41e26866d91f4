"""The subset scan that listed initial segments before down-sets were
enumerated, the reference for ``distributed._initial_segments``; the
every-segment loop that generated runs used to store sigma, the
reference for ``distributed.segment_states`` on them; and the eager
segment scan, which lists every segment before it fires any, the
reference for ``distributed._sigma``.

The subset scan tries all 2^n subsets of the moves, so it is only usable
for a handful.
"""

from __future__ import annotations

from unittest import mock

from ealgebra import distributed
from ealgebra.distributed import (
    _Refuted,
    _base,
    _initial_segments,
    _move_update_set,
    _order,
    check_partial_run,
    segment_states,
    validate_spec_state,
)


def initial_segments(moves, preds) -> list[frozenset]:
    """Every subset closed under the predecessor sets, by size, then sorted ids."""
    n = len(moves)
    out = []
    for mask in range(1 << n):
        segment = frozenset(moves[i] for i in range(n) if mask >> i & 1)
        if all(preds[m] <= segment for m in segment):
            out.append(segment)
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


def maximal(segment, preds) -> tuple[str, ...]:
    """The segment's moves below no other move of it, sorted."""
    return tuple(sorted(m for m in segment if not any(m in preds[x] for x in segment)))


def topological_orders(segment, direct, budget) -> tuple[list[list[str]], bool]:
    """The recursive listing ``distributed.linearizations`` used before it
    kept its own stack: depth first, smallest id placed first, and whether
    every order was listed within the budget."""
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
            if direct[m] <= done:
                placed.append(m)
                extend(placed, left - {m})
                placed.pop()
                if not complete:
                    return

    extend([], frozenset(segment))
    return orders, complete


def generated_sigma(pr) -> dict:
    """Sigma on every initial segment of a run ``generate_partial_run``
    made, as it computed them when it stored them all.

    Every edge runs forward in the schedule, so a segment's latest move in
    schedule order is maximal: its state is that move fired at the state
    of the rest, which comes earlier in the segment order.
    """
    position = {m: i for i, m in enumerate(pr.moves)}
    states = {frozenset(): pr.states[frozenset()]}
    for segment, top in list(_initial_segments(_order(pr.moves, pr.edges)))[1:]:
        latest = max(top, key=position.__getitem__)
        states[segment], _ = states[segment - {latest}].fire_update_set(pr.recorded[latest])
    return states


def with_every_sigma(spec, pr):
    """The run with sigma stored on every initial segment."""
    return pr._replace(states=segment_states(spec, pr))


def eager_sigma(spec, pr, order, by_element=None) -> dict:
    """The segment scan as it was before ``distributed._sigma`` fired
    segments as they were listed: every initial segment is listed first,
    then fired in the same order, each state from its maximal moves."""
    computed = {frozenset(): _base(pr)}
    segments = list(_initial_segments(order))[1:]
    if segments and by_element is None:
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


def scan_verdict(spec, pr, scan, initial_state=None):
    """``check_partial_run`` with the independence pass declining, so that
    ``scan`` in place of ``distributed._sigma`` decides condition 4."""
    with mock.patch.multiple(distributed, _independent=lambda *args: False, _sigma=scan):
        return check_partial_run(spec, pr, initial_state=initial_state)
