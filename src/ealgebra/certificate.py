"""Run-certificate files for partially ordered runs.

Text format, one declaration per line::

    move m1 by 0                 # move id and the agent's element
    move m2 by 1
    order m1 < m2                # ordering edges (earlier < later)
    updates m1: Fork(0) := up, Mode(0) := eat    # optional, once per move
    initial from ring3.east      # sigma of the empty segment, by reference
    sigma m1, m2:                # or inline, once per segment, one fact a line
      Fork(0) = up
    endsigma

``sigma:`` with no move ids gives the empty segment inline; a static
mirror inside a recorded set is marked with a leading ``~``.  Element
literals and fact lines follow the grammar of ``stateio``.
"""

from __future__ import annotations

import os
import re

from .distributed import PartialRun, _require_spec
from .errors import CertificateError, ParseError, require, require_text
from .state import Element, Location, State, StaticMirror, Update, UpdateSet, format_element
from .stateio import _read_state, fact_reader, format_state, load_state, parse_element, text_lines
from .syntax import DistributedSpec
from .vocabulary import IDENTIFIER

_MOVE_RE = re.compile(r"^move\s+(\w+)\s+by\s+(\S+)$")
_ORDER_RE = re.compile(r"^order\s+(\w+)\s*<\s*(\w+)$")
_UPDATES_RE = re.compile(r"^updates\s+(\w+)\s*:\s*(.*)$")
_SIGMA_RE = re.compile(r"^sigma\s*([\w\s,]*):$")
_INITIAL_RE = re.compile(r"^initial\s+from\s+(\S+)$")
_ENTRY_SEP_RE = re.compile(r",(?![^()]*\))")  # a comma outside parentheses


def parse_certificate(text: str, spec: DistributedSpec, base_dir: str | None = None) -> PartialRun:
    _require_spec(spec, "parse_certificate")
    moves: list[str] = []
    agent_of: dict[str, Element] = {}
    edges: set[tuple[str, str]] = set()
    recorded: dict[str, UpdateSet] = {}
    states: dict[frozenset, State] = {}
    read = fact_reader(":=", spec.vocabulary)

    lines = text_lines(require_text(text, "parse_certificate"))
    for _, line in lines:
        m = _MOVE_RE.match(line)
        if m:
            move, raw = m.groups()
            if move in agent_of:
                raise CertificateError(f"move {move} declared twice")
            moves.append(move)
            agent_of[move] = parse_element(raw, spec.vocabulary)
            continue
        m = _ORDER_RE.match(line)
        if m:
            edges.add((m.group(1), m.group(2)))
            continue
        m = _UPDATES_RE.match(line)
        if m:
            move, rest = m.groups()
            if move in recorded:
                raise CertificateError(f"second updates line for move {move}")
            beta = []
            for entry in filter(None, map(str.strip, _ENTRY_SEP_RE.split(rest))):
                mirror = entry.startswith("~")
                fact = read(entry[mirror:])
                if fact is None or not IDENTIFIER.fullmatch(fact[0]):
                    raise CertificateError(f"bad update entry: {entry!r}")
                fname, args, value = fact
                beta.append((StaticMirror if mirror else Update)(Location(fname, args), value))
            recorded[move] = UpdateSet(beta)
            continue
        m = _INITIAL_RE.match(line)
        if m:
            if frozenset() in states:
                raise CertificateError("second sigma of segment {}")
            if base_dir is None:
                raise CertificateError("initial-from needs a base directory")
            path = os.path.join(base_dir, m.group(1))
            try:
                states[frozenset()] = load_state(path, spec.vocabulary, constants=spec.constants)
            except OSError as exc:
                raise CertificateError(f"cannot read initial state: {exc}") from exc
            continue
        m = _SIGMA_RE.match(line)
        if m:
            ids = frozenset(x.strip() for x in m.group(1).split(",") if x.strip())
            if ids in states:
                raise CertificateError(f"second sigma of segment {{{', '.join(sorted(ids))}}}")
            block = []
            for pair in lines:
                if pair[1] == "endsigma":
                    break
                block.append(pair)
            else:
                raise CertificateError("sigma block missing endsigma")
            try:
                states[ids] = _read_state(block, spec.vocabulary, spec.constants)
            except ParseError as exc:
                raise CertificateError(f"sigma block: {exc}") from exc
            continue
        raise CertificateError(f"unrecognized certificate line: {line!r}")

    return PartialRun(tuple(moves), agent_of, frozenset(edges), states, recorded or None)


def load_certificate(path, spec: DistributedSpec) -> PartialRun:
    _require_spec(spec, "load_certificate")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_certificate(fh.read(), spec, base_dir=os.path.dirname(path) or ".")


def format_certificate(pr: PartialRun) -> str:
    require(pr, PartialRun, "format_certificate")
    lines = []
    for move in pr.moves:
        lines.append(f"move {move} by {format_element(pr.agent_of[move])}")
    for earlier, later in sorted(pr.edges):
        lines.append(f"order {earlier} < {later}")
    if pr.recorded:
        for move in pr.moves:
            beta = pr.recorded.get(move)
            if beta is None:
                continue
            entries = ", ".join(map(repr, beta.sorted_updates()))
            lines.append(f"updates {move}: {entries}".rstrip())
    for key in sorted(pr.states, key=lambda k: (len(k), tuple(sorted(k)))):
        ids = ", ".join(sorted(key))
        lines.append(f"sigma {ids}:" if ids else "sigma:")
        body = format_state(pr.states[key]).rstrip("\n")
        if body:
            for fact in body.splitlines():
                lines.append(f"  {fact}")
        lines.append("endsigma")
    return "\n".join(lines) + "\n"
