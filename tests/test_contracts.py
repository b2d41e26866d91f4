"""Every public entry point refuses a wrong-kind state, run, trace, spec,
vocabulary or int.

Each function the package exports that takes a ``State``, a
``PartialRun``, a ``RunTrace``, a ``DistributedSpec`` or a ``Vocabulary``
is called with ``None`` (where it is not the default) and with text in
that argument's place, the others valid.
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
import os
import re

import pytest

import ealgebra
from ealgebra import (
    ContractViolation,
    EalgebraError,
    Element,
    FunctionName,
    ModeError,
    State,
    StateValidityError,
    agent_move,
    agents_of,
    bound_vars,
    check_partial_run,
    corollary2_agrees,
    desugar,
    enumerate_reachable,
    eval_guard,
    eval_term,
    format_certificate,
    format_program,
    format_rule,
    format_state,
    free_vars,
    fun_of,
    generate_partial_run,
    is_perspicuous,
    linearizations,
    load_certificate,
    load_state,
    make_perspicuous,
    make_vocabulary,
    normalize_guarded,
    nupdates,
    parse_certificate,
    parse_element,
    parse_guard_text,
    parse_program,
    parse_rule_text,
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
from ealgebra.syntax import Block

KINDS = ("State", "PartialRun", "RunTrace", "DistributedSpec", "Vocabulary")

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

CERTIFICATE = format_certificate(RUN)
VOCABULARY = PROGRAM.vocabulary

# (function, parameter) -> (the call with that argument, a valid argument)
CALLS = {
    ("agent_move", "spec"): (lambda sp: agent_move(sp, SPEC_STATE, P), SPEC),
    ("agent_move", "state"): (lambda s: agent_move(SPEC, s, P), SPEC_STATE),
    ("agents_of", "spec"): (lambda sp: agents_of(sp, SPEC_STATE), SPEC),
    ("agents_of", "state"): (lambda s: agents_of(SPEC, s), SPEC_STATE),
    ("check_partial_run", "spec"): (lambda sp: check_partial_run(sp, RUN), SPEC),
    ("check_partial_run", "pr"): (lambda pr: check_partial_run(SPEC, pr), RUN),
    ("check_partial_run", "initial_state"): (
        lambda s: check_partial_run(SPEC, RUN, initial_state=s), SPEC_STATE),
    ("corollary2_agrees", "spec"): (lambda sp: corollary2_agrees(sp, RUN, GUARD), SPEC),
    ("corollary2_agrees", "pr"): (lambda pr: corollary2_agrees(SPEC, pr, GUARD), RUN),
    ("enumerate_reachable", "target"): (lambda t: enumerate_reachable(t, STATE, 1), PROGRAM),
    ("enumerate_reachable", "initial"): (lambda s: enumerate_reachable(PROGRAM, s, 1), STATE),
    ("eval_guard", "state"): (lambda s: eval_guard(s, None, GUARD), SPEC_STATE),
    ("eval_term", "state"): (lambda s: eval_term(s, None, TERM), SPEC_STATE),
    ("format_certificate", "pr"): (format_certificate, RUN),
    ("format_state", "state"): (format_state, STATE),
    ("generate_partial_run", "spec"): (lambda sp: generate_partial_run(sp, SPEC_STATE, []), SPEC),
    ("generate_partial_run", "initial"): (lambda s: generate_partial_run(SPEC, s, []), SPEC_STATE),
    ("linearizations", "spec"): (lambda sp: linearizations(sp, RUN), SPEC),
    ("linearizations", "pr"): (lambda pr: linearizations(SPEC, pr), RUN),
    # An empty file is an empty certificate and an empty state.
    ("load_certificate", "spec"): (lambda sp: load_certificate(os.devnull, sp), SPEC),
    ("load_state", "vocabulary"): (lambda v: load_state(os.devnull, v), VOCABULARY),
    ("nupdates", "state"): (lambda s: nupdates(PROGRAM.prepared, s), STATE),
    ("nupdates", "vocabulary"): (
        lambda v: nupdates(PROGRAM.prepared, STATE, vocabulary=v), VOCABULARY),
    ("parse_certificate", "spec"): (lambda sp: parse_certificate(CERTIFICATE, sp), SPEC),
    ("parse_element", "vocabulary"): (lambda v: parse_element("a", v), VOCABULARY),
    ("parse_guard_text", "vocabulary"): (lambda v: parse_guard_text("c = a", v), VOCABULARY),
    ("parse_rule_text", "vocabulary"): (lambda v: parse_rule_text("c := a", v), VOCABULARY),
    ("parse_state", "vocabulary"): (lambda v: parse_state("c = a", v), VOCABULARY),
    ("parse_term_text", "vocabulary"): (lambda v: parse_term_text("c", v), VOCABULARY),
    ("render_trace", "trace"): (render_trace, TRACE),
    ("replay_record", "state"): (lambda s: replay_record(s, TRACE.records[0]), STATE),
    ("run", "initial"): (lambda s: run(PROGRAM, s, max_steps=1), STATE),
    ("sequential_run", "spec"): (lambda sp: sequential_run(sp, SPEC_STATE, max_steps=1), SPEC),
    ("sequential_run", "initial"): (lambda s: sequential_run(SPEC, s, max_steps=1), SPEC_STATE),
    ("step", "state"): (lambda s: step(PROGRAM, s), STATE),
    ("updates", "state"): (lambda s: updates(PROGRAM.prepared, s), STATE),
    ("updates", "vocabulary"): (
        lambda v: updates(PROGRAM.prepared, STATE, vocabulary=v), VOCABULARY),
    ("validate_spec_state", "spec"): (lambda sp: validate_spec_state(sp, SPEC_STATE), SPEC),
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


def test_the_sweep_covers_every_entry_point_that_takes_a_state_run_trace_spec_or_vocabulary():
    assert set(CALLS) == typed_parameters()


def defaults_to_none(entry: tuple[str, str]) -> bool:
    """Whether None is the parameter's default (no initial state given,
    the state's own vocabulary)."""
    return inspect.signature(getattr(ealgebra, entry[0])).parameters[entry[1]].default is None


WRONG = [
    pytest.param(entry, bad, id=f"{'-'.join(entry)}-{type(bad).__name__}")
    for entry in sorted(CALLS) for bad in (None, "x")
    if not (bad is None and defaults_to_none(entry))
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


@pytest.mark.parametrize("call", [
    parse_certificate,
    lambda text, program: load_certificate(os.devnull, program),
])
def test_a_single_agent_program_is_no_spec_for_a_certificate(call):
    with pytest.raises(ModeError, match="single-agent program"):
        call(CERTIFICATE, PROGRAM)


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


TABLED = make_vocabulary([FunctionName("c", 0), FunctionName("F", 1)])


@pytest.mark.parametrize("tables,message", [
    ({"c": {(): 5}}, "State takes elements in the table of c, not int"),
    ({"F": {("a",): P}}, "State takes elements in the table of F, not str"),
    ({"F": {(P,): "p"}}, "State takes elements in the table of F, not str"),
    ({"c": 5}, "State takes a mapping for c, not int"),
    ({"F": {5: P}}, "State takes a tuple of arguments in the table of F, not int"),
], ids=["value", "argument", "text-value", "table", "arguments"])
def test_a_state_table_of_the_wrong_kind_is_a_contract_violation(tables, message):
    with pytest.raises(EalgebraError) as refused:
        State(TABLED, tables)
    assert type(refused.value) is ContractViolation
    assert str(refused.value) == message


@pytest.mark.parametrize("args,message", [
    (("x",), "State takes a Vocabulary, not str"),
    ((TABLED, None, "3"), "State takes an int, not str"),
], ids=["vocabulary", "reserve"])
def test_a_state_input_of_the_wrong_kind_is_a_contract_violation(args, message):
    with pytest.raises(EalgebraError) as refused:
        State(*args)
    assert type(refused.value) is ContractViolation
    assert str(refused.value) == message


def test_a_negative_reserve_is_a_state_validity_error():
    State(TABLED, None, 0)
    with pytest.raises(StateValidityError, match=r"^reserve: -1 is negative$"):
        State(TABLED, None, -1)


# (entry point, the call with a wrong-kind node or element, a valid call)
NODE_CALLS = [
    ("sequential_run", lambda x: sequential_run(SPEC, SPEC_STATE, [P, x]), P),
    ("generate_partial_run", lambda x: generate_partial_run(SPEC, SPEC_STATE, [x]), P),
    ("agent_move", lambda x: agent_move(SPEC, SPEC_STATE, x), P),
    ("enumerate_reachable", lambda x: enumerate_reachable(SPEC, SPEC_STATE, 1, predicate=x),
     GUARD),
    ("linearizations", lambda x: linearizations(SPEC, RUN, segment=x), frozenset(RUN.moves)),
    ("eval_guard", lambda x: eval_guard(SPEC_STATE, None, x), GUARD),
    ("eval_term", lambda x: eval_term(SPEC_STATE, None, x), TERM),
    ("updates", lambda x: updates(x, STATE), PROGRAM.prepared),
    ("nupdates", lambda x: nupdates(x, STATE), PROGRAM.prepared),
]


@pytest.mark.parametrize("entry,call,valid", NODE_CALLS, ids=[c[0] for c in NODE_CALLS])
def test_a_wrong_kind_node_or_element_is_a_contract_violation(entry, call, valid):
    call(valid)
    for bad in (5, 2.5):
        with pytest.raises(EalgebraError) as refused:
            call(bad)
        assert type(refused.value) is ContractViolation
        assert str(refused.value).startswith(f"{entry} takes a")
        assert str(refused.value).endswith(f", not {type(bad).__name__}")


# (entry point, the function, a valid argument)
SYNTAX_CALLS = [
    ("format_rule", format_rule, PROGRAM.rule),
    ("desugar", desugar, PROGRAM.rule),
    ("free_vars", free_vars, TERM),
    ("bound_vars", bound_vars, GUARD),
    ("make_perspicuous", make_perspicuous, PROGRAM.rule),
    ("is_perspicuous", is_perspicuous, PROGRAM.prepared),
    ("fun_of", fun_of, PROGRAM),
    ("normalize_guarded", normalize_guarded, PROGRAM.rule),
    ("format_program", format_program, PROGRAM),
]


@pytest.mark.parametrize("entry,call,valid", SYNTAX_CALLS, ids=[c[0] for c in SYNTAX_CALLS])
def test_a_syntax_entry_point_refuses_what_is_no_syntax_node(entry, call, valid):
    call(valid)
    for bad in (5, 2.5, None, "r") + ((SPEC,) if entry == "format_program" else ()):
        with pytest.raises(EalgebraError) as refused:
            call(bad)
        assert type(refused.value) is ContractViolation
        shown = "text|str" if isinstance(bad, str) else type(bad).__name__
        assert re.fullmatch(rf"{entry} takes an? [a-zA-Z ,]+, not (?:{shown})(; .*)?",
                            str(refused.value))


@pytest.mark.parametrize("call", [format_rule, desugar, free_vars, bound_vars, make_perspicuous])
def test_a_malformed_node_inside_a_tree_stays_a_type_error(call):
    with pytest.raises(TypeError, match="int"):
        call(Block((PROGRAM.rule, 5)))


def test_an_unknown_trace_format_is_a_contract_violation():
    for fmt in ("text", "records"):
        render_trace(TRACE, fmt=fmt)
    with pytest.raises(EalgebraError) as refused:
        render_trace(TRACE, fmt="xml")
    assert type(refused.value) is ContractViolation
    assert str(refused.value) == "render_trace takes the format text or records, not 'xml'"
