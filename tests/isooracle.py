"""Brute-force reserve-renaming isomorphism, the reference for canonical keys.

Tries every bijection between the reserve elements two states mention, so
it is only usable for a handful of them.
"""

from __future__ import annotations

import itertools

from ealgebra import Element, State


def mentioned_reserve(state: State) -> list[Element]:
    found = {
        e
        for _, args, value in state.facts()
        for e in (*args, value)
        if e.kind == "reserve"
    }
    return sorted(found, key=Element.sort_key)


def remapped_facts(state: State, mapping) -> frozenset:
    def m(e):
        return mapping.get(e, e)

    return frozenset(
        (fname, tuple(m(a) for a in args), m(value))
        for fname, args, value in state.facts()
    )


def brute_isomorphic(one: State, other: State) -> bool:
    """True iff some bijection of mentioned reserve elements maps one's
    facts onto the other's."""
    mine, theirs = mentioned_reserve(one), mentioned_reserve(other)
    if len(mine) != len(theirs):
        return False
    target = remapped_facts(other, {})
    return any(
        remapped_facts(one, dict(zip(mine, perm))) == target
        for perm in itertools.permutations(theirs)
    )
