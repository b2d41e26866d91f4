"""Every public entry point refuses a wrong-kind state, run, trace or int.

Each function the package exports that takes a ``State``, a
``PartialRun`` or a ``RunTrace`` is called with ``None`` (where it is not
the default) and with text in that argument's place, the others valid.
It must raise an ``EalgebraError`` that names it (``ContractViolation``),
never an ``AttributeError`` from deep inside, and never return: text
given as the initial state of a certificate check once refuted it under
condition 3.  The same call with the valid argument must succeed, so the
refusal is the argument's.  ``CALLS`` must cover every such parameter,
found by the annotations of the exported functions, so a new entry point
joins the sweep.  An ``int`` parameter is swept the same way with
text, a float and a ``bool`` in its place, and ``None`` where the
annotation does not allow it (``INT_CALLS``).
"""

from __future__ import annotations

import inspect
import re

import pytest

import ealgebra
from ealgebra import (
    ContractViolation,
    EalgebraError,
    Element,
    agent_move,
    agents_of,
    check_partial_run,
    corollary2_agrees,
    enumerate_reachable,
    eval_guard,
    eval_term,
    format_certificate,
    format_rule,
    format_state,
    generate_partial_run,
    linearizations,
    make_vocabulary,
    nupdates,
    parse_guard_text,
    parse_program,
    parse_state,
    parse_term_text,
    render_trace,
    replay_record,
    run,
    sequential_run,
    step,
    updates,
    validate_spec_state,
)

KINDS = ("State", "PartialRun", "RunTrace")

SPEC = parse_program("""\
vocabulary:
  dynamic Mode/1
  static relation P/1
constants think, eat, p
module Phil:
  Mode(Self) := eat
""")
SPEC_STATE = parse_state("Mod(p) = Phil\nMode(p) = think\nP(p) = true",
                         SPEC.vocabulary, constants=SPEC.constants)
PROGRAM = parse_program("vocabulary:\n  dynamic c/0\nconstants a\nprogram:\n  c := a\n")
STATE = parse_state("", PROGRAM.vocabulary, constants=PROGRAM.constants)
P = Element.named("p")
RUN = generate_partial_run(SPEC, SPEC_STATE, [P])
TRACE = run(PROGRAM, STATE, max_steps=1)
GUARD = parse_guard_text("Mode(p) = think", SPEC.vocabulary)
TERM = parse_term_text("Mode(p)", SPEC.vocabulary)

# (function, parameter) -> (the call with that argument, a valid argument)
CALLS = {
    ("agent_move", "state"): (lambda s: agent_move(SPEC, s, P), SPEC_STATE),
    ("agents_of", "state"): (lambda s: agents_of(SPEC, s), SPEC_STATE),
    ("check_partial_run", "pr"): (lambda pr: check_partial_run(SPEC, pr), RUN),
    ("check_partial_run", "initial_state"): (
        lambda s: check_partial_run(SPEC, RUN, initial_state=s), SPEC_STATE),
    ("corollary2_agrees", "pr"): (lambda pr: corollary2_agrees(SPEC, pr, GUARD), RUN),
    ("enumerate_reachable", "initial"): (lambda s: enumerate_reachable(PROGRAM, s, 1), STATE),
    ("eval_guard", "state"): (lambda s: eval_guard(s, None, GUARD), SPEC_STATE),
    ("eval_term", "state"): (lambda s: eval_term(s, None, TERM), SPEC_STATE),
    ("format_certificate", "pr"): (format_certificate, RUN),
    ("format_state", "state"): (format_state, STATE),
    ("generate_partial_run", "initial"): (lambda s: generate_partial_run(SPEC, s, []), SPEC_STATE),
    ("linearizations", "pr"): (lambda pr: linearizations(SPEC, pr), RUN),
    ("nupdates", "state"): (lambda s: nupdates(PROGRAM.prepared, s), STATE),
    ("render_trace", "trace"): (render_trace, TRACE),
    ("replay_record", "state"): (lambda s: replay_record(s, TRACE.records[0]), STATE),
    ("run", "initial"): (lambda s: run(PROGRAM, s, max_steps=1), STATE),
    ("sequential_run", "initial"): (lambda s: sequential_run(SPEC, s, max_steps=1), SPEC_STATE),
    ("step", "state"): (lambda s: step(PROGRAM, s), STATE),
    ("updates", "state"): (lambda s: updates(PROGRAM.prepared, s), STATE),
    ("validate_spec_state", "state"): (lambda s: validate_spec_state(SPEC, s), SPEC_STATE),
}


def typed_parameters() -> set[tuple[str, str]]:
    """(function, parameter) for each exported function's parameter whose
    annotation names a state, a partial run or a trace."""
    found = set()
    for name in ealgebra.__dict__:
        fn = getattr(ealgebra, name)
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        for param in inspect.signature(fn).parameters.values():
            if any(kind in str(param.annotation) for kind in KINDS):
                found.add((name, param.name))
    return found


def test_the_sweep_covers_every_entry_point_that_takes_a_state_run_or_trace():
    assert set(CALLS) == typed_parameters()


# None is the default of an optional argument: no initial state given.
WRONG = [
    pytest.param(entry, bad, id=f"{'-'.join(entry)}-{type(bad).__name__}")
    for entry in sorted(CALLS) for bad in (None, "x")
    if not (bad is None and entry == ("check_partial_run", "initial_state"))
]


@pytest.mark.parametrize("entry,bad", WRONG)
def test_a_wrong_kind_argument_is_a_contract_violation(entry, bad):
    call, valid = CALLS[entry]
    call(valid)
    with pytest.raises(EalgebraError) as refused:
        call(bad)
    assert type(refused.value) is ContractViolation
    assert str(refused.value).startswith(f"{entry[0]} takes a ")
    assert str(refused.value).endswith(f", not {type(bad).__name__}")


# (function, parameter) -> (the call with that argument, a valid argument)
INT_CALLS = {
    ("agent_move", "index"): (lambda i: agent_move(SPEC, SPEC_STATE, P, index=i), 2),
    ("enumerate_reachable", "budget"): (
        lambda b: enumerate_reachable(PROGRAM, STATE, 1, budget=b), 5),
    ("enumerate_reachable", "depth"): (lambda d: enumerate_reachable(PROGRAM, STATE, d), 1),
    ("format_rule", "indent"): (lambda i: format_rule(PROGRAM.rule, i), 1),
    ("linearizations", "budget"): (lambda b: linearizations(SPEC, RUN, budget=b), 3),
    ("make_vocabulary", "modulus"): (lambda m: make_vocabulary([], integers=True, modulus=m), 5),
    ("run", "max_steps"): (lambda n: run(PROGRAM, STATE, max_steps=n), 2),
    ("sequential_run", "max_steps"): (lambda n: sequential_run(SPEC, SPEC_STATE, max_steps=n), 1),
    ("step", "step_index"): (lambda i: step(PROGRAM, STATE, step_index=i), 3),
}


def int_parameters() -> dict[tuple[str, str], bool]:
    """(function, parameter) for each exported function's parameter whose
    annotation names ``int``, and whether it allows None."""
    found = {}
    for name in ealgebra.__dict__:
        fn = getattr(ealgebra, name)
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        for param in inspect.signature(fn).parameters.values():
            if re.search(r"\bint\b", str(param.annotation)):
                found[name, param.name] = "None" in str(param.annotation)
    return found


def test_the_sweep_covers_every_entry_point_that_takes_an_int():
    assert set(INT_CALLS) == set(int_parameters())


WRONG_INTS = [
    pytest.param(entry, bad, id=f"{'-'.join(entry)}-{type(bad).__name__}")
    for entry, optional in sorted(int_parameters().items())
    for bad in ("3", 2.5, True) + (() if optional else (None,))
]


@pytest.mark.parametrize("entry,bad", WRONG_INTS)
def test_a_wrong_kind_int_is_a_contract_violation(entry, bad):
    call, valid = INT_CALLS[entry]
    call(valid)
    with pytest.raises(EalgebraError) as refused:
        call(bad)
    assert type(refused.value) is ContractViolation
    assert str(refused.value) == f"{entry[0]} takes an int, not {type(bad).__name__}"
