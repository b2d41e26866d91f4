"""The subset scan that listed initial segments before down-sets were
enumerated, the reference for ``distributed._initial_segments``.

Tries all 2^n subsets of the moves, so it is only usable for a handful.
"""

from __future__ import annotations


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
