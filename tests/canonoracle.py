"""A second canonical form, over element sort keys, as a differential
oracle for ``state._canonical_form``.

Facts are coded over a palette of element sort keys (``_Coded``), colours
are the ranks of sorted signatures, and every round relabels every fact.
The search, twin pruning and automorphism pruning are the engine's, over
these colourings.  ``old_key`` is the canonical key built on it: two fact
sets are isomorphic under reserve renaming iff their old keys are equal,
whatever the number of reserve elements, so it reaches sizes the
brute-force oracle cannot.
"""

from __future__ import annotations

from typing import Optional

from ealgebra import Element


def old_key(facts) -> object:
    """The fact set if no fact mentions a reserve element, else the
    reserve-free facts paired with the canonical form of the others."""
    facts = frozenset(facts)
    moving = [
        fact for fact in facts
        if any(e.kind == "reserve" for e in (*fact[1], fact[2]))
    ]
    if not moving:
        return facts
    return facts.difference(moving), _canonical_form(moving)


class _Coded:
    """Facts mentioning reserve elements, coded for colour refinement.

    The k reserve elements are numbered 0..k-1 by serial.  A fact becomes
    ``(name, slots)``, the value being the last slot, and a slot indexes
    ``palette``: below k a reserve element, from k on the sort key of some
    other element.  A colouring gives each reserve element a colour in
    0..c-1; relabelling by it shows colour i as ``(3, i, "")``, the sort key
    of reserve element i.
    """

    def __init__(self, facts):
        serials = sorted(
            {e.value for _, args, value in facts for e in (*args, value) if e.kind == "reserve"}
        )
        self.size = k = len(serials)
        reserve_at = {serial: i for i, serial in enumerate(serials)}
        other_at: dict[Element, int] = {}
        self.palette: list = [None] * k
        self.facts = []
        # Where each reserve element occurs: slot positions and fact rows.
        self.positions: list[list[int]] = [[] for _ in serials]
        self.rows: list[list[int]] = [[] for _ in serials]
        for j, (fname, args, value) in enumerate(facts):
            slots = []
            for p, e in enumerate((*args, value)):
                if e.kind == "reserve":
                    at = reserve_at[e.value]
                    self.positions[at].append(p)
                    self.rows[at].append(j)
                else:
                    at = other_at.get(e)
                    if at is None:
                        at = other_at[e] = len(self.palette)
                        self.palette.append(e.sort_key())
                slots.append(at)
            self.facts.append((fname, tuple(slots)))

    def relabel(self, colour: list[int]) -> list:
        palette = self.palette
        palette[: self.size] = [(3, c, "") for c in colour]
        show = palette.__getitem__
        return [(fname, tuple(map(show, slots))) for fname, slots in self.facts]

    def form(self, colour: list[int]) -> tuple:
        return tuple(sorted(self.relabel(colour)))

    def refine(self, colour: list[int]) -> list[int]:
        """Split colours by the relabelled facts each element occurs in, and
        where, until no colour splits; renumber by the sorted signatures."""
        cells = len(set(colour))
        while cells < self.size:
            show = self.relabel(colour).__getitem__
            signatures = [
                (c, tuple(sorted(zip(ps, map(show, js)))))
                for c, ps, js in zip(colour, self.positions, self.rows)
            ]
            rank = {sig: r for r, sig in enumerate(sorted(set(signatures)))}
            colour = [rank[sig] for sig in signatures]
            if len(rank) == cells:
                break
            cells = len(rank)
        return colour

    def twins(self, colour: list[int]) -> list[int]:
        """The least twin of every element (itself if it has none).

        Twins are elements whose transposition maps the facts onto
        themselves.  They share a colour in every stable colouring, and
        twinship is an equivalence, so each element is compared with one
        member per class found so far in its colour.
        """
        present = set(self.facts)

        def swaps_onto(a: int, b: int) -> bool:
            for x in (a, b):
                for j in self.rows[x]:
                    fname, slots = self.facts[j]
                    swapped = tuple(b if s == a else a if s == b else s for s in slots)
                    if (fname, swapped) not in present:
                        return False
            return True

        twin = list(range(self.size))
        classes: dict[int, list[int]] = {}
        for x, c in enumerate(colour):
            reps = classes.setdefault(c, [])
            for r in reps:
                if swaps_onto(r, x):
                    twin[x] = r
                    break
            else:
                reps.append(x)
        return twin


def _canonical_form(facts) -> tuple:
    """Least relabelled tuple of ``facts`` over the leaves of the search tree.

    The root colouring is refined until stable.  While some colour is
    shared, the first shared colour's cell is split: one branch per
    element, individualised and refined again.  Branches that a known
    automorphism maps onto an explored one are skipped: transpositions of
    twins from the start, and automorphisms found as two leaves with equal
    forms.  A cell of mutual twins is split in one branch.  Each leaf
    colouring is a bijection onto 0..k-1.  The tree depends on the facts
    alone, so isomorphic fact sets give the same leaf forms and the same
    least one.
    """
    coded = _Coded(facts)
    colour = coded.refine([0] * coded.size)
    if len(set(colour)) == coded.size:
        return coded.form(colour)
    twin = coded.twins(colour)
    first = best = None  # (form, element of each label) of a leaf
    automorphisms: list[list[int]] = []
    frames = []  # (colour, individualised, untried cell members, explored)
    node = (colour, ())
    while node is not None:
        colour, prefix = node
        cell = _first_shared_cell(colour)
        while cell is not None and len({twin[x] for x in cell}) == 1:
            colour = coded.refine(_split(colour, cell))
            cell = _first_shared_cell(colour)
        if cell is None:
            form = coded.form(colour)
            labelled = [0] * len(colour)
            for x, c in enumerate(colour):
                labelled[c] = x
            if first is None:
                first = best = (form, labelled)
            elif form == first[0] or form == best[0]:
                known = first if form == first[0] else best
                automorphisms.append([known[1][c] for c in colour])
            elif form < best[0]:
                best = (form, labelled)
        else:
            frames.append((colour, prefix, cell, []))
        node = None
        while frames and node is None:
            colour, prefix, untried, explored = frames[-1]
            if not untried:
                frames.pop()
                continue
            x = untried.pop(0)
            if explored and _in_orbit(x, explored, prefix, twin, automorphisms):
                continue
            explored.append(x)
            node = (coded.refine(_split(colour, [x])), prefix + (x,))
    return best[0]


def _split(colour: list[int], head: list[int]) -> list[int]:
    """Give the members of ``head``, in order, colours of their own just
    ahead of the rest of their colour."""
    place = {x: n for n, x in enumerate(head)}
    pairs = [(c, place.get(x, len(head))) for x, c in enumerate(colour)]
    rank = {pair: r for r, pair in enumerate(sorted(set(pairs)))}
    return [rank[pair] for pair in pairs]


def _first_shared_cell(colour: list[int]) -> Optional[list[int]]:
    counts = [0] * len(colour)
    for c in colour:
        counts[c] += 1
    for c, n in enumerate(counts):
        if n > 1:
            return [x for x, d in enumerate(colour) if d == c]
    return None


def _in_orbit(x: int, explored: list[int], prefix, twin, automorphisms) -> bool:
    """Whether some automorphism fixing ``prefix`` maps ``x`` into
    ``explored``, using twin transpositions and the automorphisms found."""
    parent = list(twin)

    def root(y: int) -> int:
        while parent[y] != y:
            y = parent[y]
        return y

    for g in automorphisms:
        if all(g[p] == p for p in prefix):
            for y, z in enumerate(g):
                ry, rz = root(y), root(z)
                if ry != rz:
                    parent[max(ry, rz)] = min(ry, rz)
    target = root(x)
    return any(root(y) == target for y in explored)
