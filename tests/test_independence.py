"""The independence pass of ``check_partial_run`` against the segment scan.

``check_partial_run`` accepts a run when its moves, fired once in level
order, have pairwise independent footprints (``distributed._independent``);
when the pass cannot tell, the segment scan ``distributed._sigma`` decides.
Every certificate here is checked both ways: with the pass, and with the
pass declining, so that conditions 1-3 and the scan give the verdict as
they did before the pass existed.  The verdicts must be identical, and so
must ``check-run``'s JSON and exit code.  The corpus: the ``checkrun.txt``
runs and their tampered copies, two-chain certificates of the
``cert_check`` benchmark's shapes, and a spec whose agents import elements
and read ``Reserve``.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from ealgebra import (
    EalgebraError,
    Element,
    Verdict,
    check_partial_run,
    format_certificate,
    generate_partial_run,
    load_state,
    parse_program,
    parse_program_file,
    parse_state,
)
from ealgebra import distributed
from ealgebra.cli import main
from ealgebra.distributed import PartialRun
from ealgebra.syntax import App, Atom

from conftest import PROGRAMS
from segmentoracle import with_every_sigma
from test_checkrun_golden import RUNS, TAMPERS

VALID = Verdict(True, None, "all run conditions hold")


def _outcome(call):
    try:
        return call()
    except EalgebraError as exc:
        return type(exc), str(exc)


def both_ways(call):
    """``call()`` with the pass, then with the pass declining; asserts the
    two agree and returns the outcome and what the pass answered."""
    answers = []
    real = distributed._independent

    def spy(*args):
        answers.append(real(*args))
        return answers[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributed, "_independent", spy)
        fast = _outcome(call)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributed, "_independent", lambda *args: False)
        slow = _outcome(call)
    assert fast == slow
    return fast, answers


def check_both_ways(spec, pr, initial=None):
    """The verdict both ways; where conditions 1-3 held, ``_sigma`` called
    directly agrees too."""
    verdict, answers = both_ways(lambda: check_partial_run(spec, pr, initial_state=initial))
    if answers:
        order = distributed._order(pr.moves, pr.edges)
        try:
            distributed._sigma(spec, pr, order)
            direct = VALID
        except distributed._Refuted as refuted:
            direct = refuted.verdict
        assert direct == verdict
    return verdict, answers


def check_run_both_ways(program, pr, tmp_path):
    """``check-run``'s exit code and output both ways."""
    cert = tmp_path / "run.cert"
    cert.write_text(format_certificate(pr), encoding="utf-8")

    def cli():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(["check-run", str(program), str(cert)])
        return code, out.getvalue()

    return both_ways(cli)


# -- the checkrun.txt runs and their tampered copies ------------------------


@pytest.mark.parametrize("run", RUNS, ids=lambda r: f"{r[0]}:{''.join(r[2])}")
def test_golden_runs_and_tampered_copies_agree(run, tmp_path):
    program, state_file, schedule = run
    spec = parse_program_file(PROGRAMS / program)
    initial = load_state(PROGRAMS / state_file, spec.vocabulary, constants=spec.constants)
    agents = [Element.integer(int(a)) if a.isdigit() else Element.named(a) for a in schedule]
    pr = with_every_sigma(spec, generate_partial_run(spec, initial, agents))
    for name, tamper in TAMPERS:
        changed = tamper(pr)
        verdict, answers = check_both_ways(spec, changed)
        assert verdict.valid or name != "generated"
        check_run_both_ways(PROGRAMS / program, changed, tmp_path)


# -- two chains over a ring of eight, as in the cert_check benchmark --------

RING = 8


def ring_spec(tmp_path):
    path = tmp_path / "ring.ea"
    path.write_text(
        (PROGRAMS / "philosophers4.ea").read_text().replace("mod 4", f"mod {RING}"),
        encoding="utf-8",
    )
    spec = parse_program_file(path)
    facts = "".join(
        f"Mod({i}) = Phil\nMode({i}) = think\nFork({i}) = down\nP({i}) = true\n"
        for i in range(RING)
    )
    return path, spec, parse_state(facts, spec.vocabulary, constants=spec.constants)


def two_chains(first: int, second: int, a: int, b: int, state) -> PartialRun:
    moves = [f"a{i}" for i in range(1, first + 1)] + [f"b{i}" for i in range(1, second + 1)]
    agent_of = {m: Element.integer(a if m[0] == "a" else b) for m in moves}
    edges = {(f"{p}{i}", f"{p}{i + 1}") for p, n in (("a", first), ("b", second))
             for i in range(1, n)}
    return PartialRun(tuple(moves), agent_of, frozenset(edges), {frozenset(): state})


KINDS = ("valid", "adjacent", "same_agent")
SHAPES = [(total, kind) for total in range(4, 17) for kind in KINDS]


@pytest.mark.parametrize("total,kind", SHAPES)
def test_two_chain_certificates_agree(total, kind, tmp_path):
    path, spec, state = ring_spec(tmp_path)
    a = total % RING
    offset = {"valid": 2 + total % (RING - 3), "adjacent": 1, "same_agent": 0}[kind]
    pr = two_chains(total // 2, total - total // 2, a, (a + offset) % RING, state)
    verdict, answers = check_both_ways(spec, pr, state)
    assert (verdict.valid, verdict.condition) == {
        "valid": (True, None), "adjacent": (False, "4"), "same_agent": (False, "2"),
    }[kind]
    # Condition 2 refuses one agent's two chains before the pass runs.
    assert answers == {"valid": [True], "adjacent": [False], "same_agent": []}[kind]
    (code, _), _ = check_run_both_ways(path, pr, tmp_path)
    assert code == (0 if kind == "valid" else 7)


# -- agents that import and read Reserve ------------------------------------

# Grow withdraws a fresh element each move.  Peek reads Reserve(Last(Self)),
# which the language cannot write, so the test puts the read into the
# parsed rule in place of Probe; the branch that imports never runs, but it
# gives the module's vocabulary Reserve.
RESERVE_SPEC = """\
vocabulary:
  relation Node/1, Seen/1, Probe/1
  dynamic Last/1
module Grow:
  import v
    Node(v) := true
    Last(Self) := v
  endimport
module Peek:
  if Probe(Last(Self)) then Seen(Self) := true
  elseif false then
    import u
      Node(u) := true
    endimport
  else Seen(Self) := false
  endif
"""
RESERVE_STATE = "Mod(g1) = Grow\nMod(g2) = Grow\nMod(p1) = Peek\nMod(p2) = Peek\n"


def reserve_spec():
    spec = parse_program(RESERVE_SPEC)
    peek = spec.modules["Peek"]
    (probe, then), *rest = peek.rule.clauses
    reads = Atom(App("Reserve", probe.term.args))
    rule = peek.rule._replace(clauses=((reads, then), *rest))
    modules = dict(spec.module_list, Peek=peek._replace(rule=rule))
    spec = spec._replace(module_list=tuple(modules.items()))
    state = parse_state(RESERVE_STATE, spec.vocabulary, constants=spec.constants)
    return spec, state


# The first schedule generates a total order, which the pass leaves to the
# scan; the others leave the Peek moves unordered.
@pytest.mark.parametrize("schedule,accepted", [
    ("g1 p1 g2 p2 g1 p2", False),
    ("p1 p2 g1 g2", True),
    ("g2 g1 p1 g1 p2 p1", True),
])
def test_reserve_runs_and_tampered_copies_agree(schedule, accepted):
    spec, state = reserve_spec()
    pr = with_every_sigma(
        spec, generate_partial_run(spec, state, [Element.named(a) for a in schedule.split()])
    )
    for name, tamper in TAMPERS:
        verdict, answers = check_both_ways(spec, tamper(pr), state)
        if name == "generated":
            assert verdict.valid and answers == [accepted]


def test_a_reserve_read_is_left_to_the_scan():
    # Grow's withdrawal moves reserve_next, which Peek's read depends on, so
    # the pass declines; the scan finds the two orders agree here.
    spec, state = reserve_spec()
    E = Element.named
    pr = PartialRun(("m1", "m2"), {"m1": E("g1"), "m2": E("p1")}, frozenset(),
                    {frozenset(): state})
    assert check_both_ways(spec, pr, state) == (VALID, [False])


def test_two_unordered_withdrawals_disagree():
    spec, state = reserve_spec()
    E = Element.named
    pr = PartialRun(("m1", "m2"), {"m1": E("g1"), "m2": E("g2")}, frozenset(),
                    {frozenset(): state})
    verdict, answers = check_both_ways(spec, pr, state)
    assert (verdict.condition, answers) == ("4", [False])
    assert "disagree on the resulting state" in verdict.message
