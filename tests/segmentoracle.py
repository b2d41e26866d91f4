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
