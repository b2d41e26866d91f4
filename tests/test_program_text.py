"""Golden program text: what the parser makes of every shipped program and
of one malformed input per parse error it can raise.

``render`` prints, for each ``programs/*.ea``, ``format_program`` of the
parsed program (of each module of a spec) and ``format_rule`` of its
prepared rule; then the exact trees of terms and guards that pin the
operator table; then the same for rules using the constructs no shipped
program uses; then, for each malformed input, the error it raises with
its line and column.  The output is compared byte for byte with
``tests/golden/program_text.txt``; regenerate it with
``PYTHONPATH=src python tests/test_program_text.py`` only when an output
is meant to change.
"""

from __future__ import annotations

from pathlib import Path

from ealgebra import (
    DistributedSpec,
    EalgebraError,
    format_program,
    parse_guard_text,
    parse_program,
    parse_program_file,
)
from ealgebra.parser import parse_rule_text, parse_term_text
from ealgebra.syntax import format_rule

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
GOLDEN = Path(__file__).resolve().parent / "golden" / "program_text.txt"

# The header the rule-text inputs below are read under; their rule starts
# on line 9.
HEADER = """\
vocabulary:
  dynamic f/1, g/0
  dynamic relation R/1, Q/0
  static relation U/1
  static s/0
  external e/1
constants a, b
program:
"""

TEXT_SPEC = HEADER.replace("constants a, b", "constants a, b\npragma integers") + "  skip\n"

# Well-formed terms and guards; each prints as its exact tree.
TERMS = [
    "f(a) + 1 mod 2 + g",
    "1 mod 2 mod 3",
    "(f(a) + 1) mod 2",
    "not Q = Q",
    "f(a) = g < 2 != b",
    "((((a))))",
]
GUARDS = [
    "not R(a) and Q or Q implies not not Q",
    "Q implies Q implies Q",
    "f(a) = g < 2",
    "f(a) != b and not g = a",
    "(exists v in U) R(v) and Q implies Q",
    "not (forall v in U) (exists w in U) v = w",
    "(R(a) or Q) and Q",
]

# Well-formed rule text under HEADER, for the constructs no shipped
# program uses.
GOOD_RULES = [
    "case f(a) of\n  a, b: f(a) := b, g := a\n  s:\n    skip\n  else\n    f(b) := a\nendcase",
    "case g of\n  f(a): skip\n  (a): f(a) := a\nendcase",
    "let x = f(a) in\n  let y = x in\n    f(y) := x\n  endlet\nendlet",
    "Var v, w ranges over U\nif (exists u in U) R(u) implies (forall u in U) R(u) then\n  f(v) := w\nendif",
    "choose v, w in U satisfying R(v) and not Q\n  extend R with x, y\n    f(x) := v, f(y) := w\n  endextend\nendchoose",
    "duplicate f(a) as v\n  import w\n    f(v) := w\n  endimport\nendduplicate",
    "if Q then\nelseif R(a) then skip, skip\nelse\n  f(a) := a # f(a) := $\nendif",
]

# Malformed rule text under HEADER, one per error the rule parser raises.
BAD_RULES = [
    "f(a) := a $ b",
    "f(a)\t:=\ta\xa0",
    "if R(a) f(a) := a endif",
    "if R(a)\n  f(a) := a\nendif",
    "if R(a) then f(a) := a",
    "if R(a) then f(a) := a else skip elseif Q then skip endif",
    "import 3\n  skip\nendimport",
    "import v\n  f(a) := v",
    "choose v in Reserve\n  skip\nendchoose",
    "choose v in f\n  skip\nendchoose",
    "choose v U\n  skip\nendchoose",
    "choose v in U satisfying f(v)\n  skip\nendchoose",
    "choose v, w in U satisfying R(v) and Q\n  f(w) := v\nendchoose\nf(a) := v",
    "if f(a) then skip endif",
    "if (exists v in f) R(v) then skip endif",
    "if (exists v U) R(v) then skip endif",
    "if (forall v in U R(v) then skip endif",
    "f(a) := a + b",
    "f(a) := a mod b",
    "f(a) := 1",
    "f(a) := Reserve(a)",
    "f(a) := c",
    "f(a) := Self",
    "f(a, a) := a",
    "f := a",
    "f(a) := ,",
    "f(a) := (a",
    "f(a) := f(a b)",
    "f(a) = a",
    "Var v in U\nf(v) := a",
    "Var v ranges U\nf(v) := a",
    "Var v, 2 ranges over U\nf(v) := a",
    "import v\n  v := a\nendimport",
    "s := a",
    "true := a",
    "R(a) := a",
    "Q := R(a) and f(a)",
    "extend U with v\n  skip\nendextend",
    "extend f with v\n  skip\nendextend",
    "extend R v\n  skip\nendextend",
    "let x = a f(x) := a endlet",
    "let x a in f(x) := a endlet",
    "let x = a in\n  f(x) := a",
    "duplicate a v\n  skip\nendduplicate",
    "duplicate a as v\n  skip",
    "case f(a) of\nendcase",
    "case f(a) of\n  a f(a) := a\nendcase",
    "case f(a)\n  a: skip\nendcase",
    "case f(a) of\n  a: skip\n  else\n    skip\n  b: skip\nendcase",
    "e(a) := a",
    "f(a) := e(e(a))",
    "f(a) := a endif",
    "f(a) := a then",
]

# Malformed headers and program files, one per error the header reader raises.
BAD_PROGRAMS = [
    "vocabulary:\n  dynamic\nprogram:\n  skip\n",
    "vocabulary:\n  dynamic f\nprogram:\n  skip\n",
    "vocabulary:\n  dynamic f/1, g/x\nprogram:\n  skip\n",
    "constants a, 3x\nprogram:\n  skip\n",
    "pragma integers mod 0\nprogram:\n  skip\n",
    "pragma integers mod\nprogram:\n  skip\n",
    "pragma integers mod 3 4\nprogram:\n  skip\n",
    "pragma fast\nprogram:\n  skip\n",
    "pragma active\nprogram:\n  skip\n",
    "alias X\nprogram:\n  skip\n",
    "alias X = 3\nprogram:\n  skip\n",
    "hello world\nprogram:\n  skip\n",
    "vocabulary:\n  dynamic f/1\n",
    "module 3x:\n  skip\n",
    "module A:\n  skip\nmodule A:\n  skip\n",
    "vocabulary:\n  dynamic f/1, f/2\nprogram:\n  skip\n",
    "vocabulary:\n  dynamic f/1\n  static f/1\nprogram:\n  skip\n",
    "vocabulary:\n  dynamic f/1\nconstants a\nalias Me = Self\nprogram:\n  f(a) := Me\n",
    "constants a\nmodule A:\n  Self := a\n",
    "vocabulary:\n  dynamic f/1\nmodule A:\n  f(Self) := Self\nmodule B:\n  f(Self) := a\n",
]

# Malformed text through the entry points that read a fragment.
BAD_TEXTS = [
    ("term", "f(a) g"),
    ("term", "f(a) :="),
    ("term", ""),
    ("guard", "f(a)"),
    ("guard", "Q Q"),
    ("guard", "(exists v in U)"),
    ("rule", "x := a"),
    ("rule", "f(a) := a\n)"),
]


def _outcome(make) -> str:
    try:
        return "ok " + make()
    except EalgebraError as exc:
        return f"{type(exc).__name__}: {exc}"


def _shown(text: str) -> str:
    return repr(text.replace("\n", " | "))


def _under_header(rule: str) -> str:
    return HEADER + "".join(f"  {line}\n" for line in rule.split("\n"))


def _program_text(program) -> str:
    return format_program(program) + "# prepared\n" + format_rule(program.prepared, indent=1)


def render() -> str:
    out = ["# programs"]
    for path in sorted(PROGRAMS.glob("*.ea")):
        out.append(f"## {path.name}")
        try:
            target = parse_program_file(path)
        except EalgebraError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
            continue
        if isinstance(target, DistributedSpec):
            for name, program in target.module_list:
                out.append(f"### module {name}")
                out.append(_program_text(program))
        else:
            out.append(_program_text(target))

    vocab = parse_program(TEXT_SPEC).vocabulary
    out.append("# terms")
    for text in TERMS:
        out.append(f"{_shown(text)} -> {_outcome(lambda: repr(parse_term_text(text, vocab)))}")
    out.append("# guards")
    for text in GUARDS:
        out.append(f"{_shown(text)} -> {_outcome(lambda: repr(parse_guard_text(text, vocab)))}")

    out.append("# rules")
    for rule in GOOD_RULES:
        out.append(_shown(rule))
        out.append(_outcome(lambda: _program_text(parse_program(_under_header(rule)))))

    out.append("# malformed rules")
    for rule in BAD_RULES:
        text = _under_header(rule)
        out.append(f"{_shown(rule)} -> {_outcome(lambda: format_program(parse_program(text)))}")
    out.append("# malformed programs")
    for text in BAD_PROGRAMS:
        out.append(f"{_shown(text)} -> {_outcome(lambda: type(parse_program(text)).__name__)}")
    out.append("# malformed fragments")
    readers = {
        "term": lambda text: repr(parse_term_text(text, vocab)),
        "guard": lambda text: repr(parse_guard_text(text, vocab)),
        "rule": lambda text: repr(parse_rule_text(text, vocab, scope=("x",))),
    }
    for kind, text in BAD_TEXTS:
        out.append(f"{kind} {_shown(text)} -> {_outcome(lambda: readers[kind](text))}")
    return "\n".join(out) + "\n"


def test_program_text_matches_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


# Nesting the parser reads under the default recursion limit: each form at
# a depth a little below the deepest it reached under pytest before the
# rule parser was rebuilt (117 parentheses, 937 nots, 309 ifs, 309 lets).
# A parser that spends more stack frames per level fails here.
NESTING = """\
vocabulary:
  dynamic f/1
  dynamic relation Q/0
constants a
program:
"""
NESTED_FORMS = [
    (110, lambda n: NESTING + "  f(a) := " + "(" * n + "a" + ")" * n + "\n"),
    (900, lambda n: NESTING + "  if " + "not " * n + "Q then skip endif\n"),
    (300, lambda n: NESTING + "if Q then\n" * n + "f(a) := a\n" + "endif\n" * n),
    (300, lambda n: NESTING + "let x = a in\n" * n + "f(x) := x\n" + "endlet\n" * n),
]


def test_nesting_headroom():
    for depth, form in NESTED_FORMS:
        parse_program(form(depth))


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
