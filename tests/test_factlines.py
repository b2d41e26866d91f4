"""Golden fact-line text: the ``name(args) = value`` lines of state files,
the ``name(args) := value`` entries of certificates and the ``step N:``
lines of oracle scripts, read and written.

``render`` feeds each reader good and malformed lines (operator names
among them) and prints what it made of each, then prints ``format_state``
of every sample state and ``format_certificate`` of generated runs of the
sample specs, with sigma stored on every initial segment.  The output is
compared byte for byte with ``tests/golden/factlines.txt``; regenerate it
with ``PYTHONPATH=src python tests/test_factlines.py`` only when an
output is meant to change.
"""

from __future__ import annotations

from pathlib import Path

from segmentoracle import with_every_sigma
from test_golden_enumerate import RUN_PAIRS

from ealgebra import (
    EalgebraError,
    Element,
    ScriptedOracle,
    format_certificate,
    format_state,
    generate_partial_run,
    load_state,
    parse_certificate,
    parse_program,
    parse_program_file,
    parse_state,
)

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
GOLDEN = Path(__file__).resolve().parent / "golden" / "factlines.txt"

STATE_LINES = [
    "f(a, a) = b",
    "f(a,a)=b",
    "f ( a , a ) = b",
    "Kind(a) = true",
    "Tag(@2) = a",
    "Tag() = a",
    "Tag = a",
    "Tag(a) := b",
    "Tag(a) = b c",
    "Tag(a) =",
    "Tag(a",
    "Tag((a)) = b",
    "Tag(a, b) = c",
    "Tag(a) = @x",
    "Tag(a) = -",
    "Tag(a) = 1x",
    "Tag(-3) = 7",
    "f'x(a) = b",
    "+x(a) = b",
    "nope(a) = b",
    "+(1, 2) = 3",
    "<(1, 2) = true",
    "=(a, b) = true",
    "mod(5, 2) = 1",
    "= = b",
    "reserve: x",
    "reserve: 1\nTag(@3) = a",
]

CERT_ENTRIES = [
    "Tag(a) := b",
    "Tag(a):=b",
    "~Kind(@0) := true",
    "~ Kind(@0) := true",
    "~~Kind(@0) := true",
    "copymark := a",
    "Tag() := a",
    "Tag(a) = b",
    "Tag(a) := b c",
    "Tag(a) :=",
    "Tag(a b) := c",
    "Tag(a) := @x",
    "f'x(a) := b",
    "+(1, 2) := 3",
    "<(1, 2) := true",
    "=(a, b) := true",
    "mod(5, 2) := 1",
    "f(a, a) := b, Tag(a) := b",
]

ORACLE_LINES = [
    "step 1: e(0) = 5",
    "step  2 :e(0, 1)=x",
    "step 3: e = 5",
    "step 1: e() = 5",
    "step x: e = 5",
    "step 1 e = 5",
    "step1: e = 5",
    "step 1: e := 5",
    "step 1: e(0) = 5 6",
    "step 1: e(0) = @x",
    "step 1: f'x(0) = 5",
    "step 1: +(1, 2) = 3",
    "step 1: <(1, 2) = true",
    "step 1: =(a, b) = true",
    "step 1: mod(5, 2) = 1",
]

# The vocabulary the malformed lines are read against.
LINES_SPEC = """\
vocabulary:
  dynamic f/1, Tag/1
  static relation Kind/1
constants a, b, mark
module Dup:
  duplicate a as v
    Tag(v) := f(mark)
  endduplicate
module Writer:
  f(a) := b
"""
# One agent, so the order of its moves does not hang on footprints; the
# copy mirrors the static Kind table, so the recorded sets hold ``~`` entries.
MIRROR_SPEC = """\
vocabulary:
  dynamic Tag/1
  static relation Kind/1
constants a, mark
module Dup:
  if Kind(a) then
    duplicate a as v
      Tag(v) := mark
    endduplicate
  endif
"""
MIRROR_STATE = "Mod(x) = Dup\nKind(a) = true\n"

# Distributed samples: (program, state, schedule of agent literals).
RUNS = [
    ("philosophers.ea", "ring3.east", ["0", "1", "2", "0", "2"]),
    ("sendrecv.ea", "sendrecv.east", ["s", "r", "t1"]),
]


def _outcome(make) -> str:
    try:
        return "ok " + make()
    except EalgebraError as exc:
        return f"{type(exc).__name__}: {exc}"


def render() -> str:
    lines_spec = parse_program(LINES_SPEC)
    vocab = lines_spec.vocabulary
    out = ["# state lines"]
    for line in STATE_LINES:
        shown = line.replace("\n", " | ")
        result = _outcome(
            lambda: format_state(parse_state(line, vocab)).replace("\n", " | ")
        )
        out.append(f"{shown!r} -> {result}")

    out.append("# certificate update entries")
    for entry in CERT_ENTRIES:
        text = f"move m1 by x\nupdates m1: {entry}\n"
        result = _outcome(
            lambda: format_certificate(parse_certificate(text, lines_spec)).replace("\n", " | ")
        )
        out.append(f"{entry!r} -> {result}")

    out.append("# oracle script lines")
    for line in ORACLE_LINES:
        result = _outcome(
            lambda: repr(sorted(ScriptedOracle.parse(line, vocab).answers.items(), key=repr))
        )
        out.append(f"{line!r} -> {result}")

    out.append("# sample states")
    for program, state_file in sorted({pair[:2] for pair in RUN_PAIRS.values()}):
        if program == "bad_reserve.ea":  # refused by the parser
            continue
        target = parse_program_file(PROGRAMS / program)
        state = load_state(PROGRAMS / state_file, target.vocabulary, constants=target.constants)
        out.append(f"## {state_file} with {program}")
        out.append(format_state(state).rstrip("\n"))

    out.append("# generated certificates")
    mirror = parse_program(MIRROR_SPEC)
    runs = [(mirror, parse_state(MIRROR_STATE, mirror.vocabulary, constants=mirror.constants), ["x", "x"])]
    for program, state, schedule in RUNS:
        spec = parse_program_file(PROGRAMS / program)
        runs.append((spec, load_state(PROGRAMS / state, spec.vocabulary, constants=spec.constants), schedule))
    for spec, initial, schedule in runs:
        agents = [Element.integer(int(a)) if a.isdigit() else Element.named(a) for a in schedule]
        pr = with_every_sigma(spec, generate_partial_run(spec, initial, agents))
        out.append(f"## {spec.module_names} schedule {' '.join(schedule)}")
        out.append(format_certificate(pr).rstrip("\n"))
    return "\n".join(out) + "\n"


def test_fact_lines_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
