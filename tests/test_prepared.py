"""Moves evaluate a rule through an evaluator prepared once per program and
vocabulary, and fire through update checks decided once per vocabulary.

The library entry points keep their options and evaluate through the
same prepared evaluator, which checks the contract once per rule,
vocabulary and names: the first tests set each option of ``updates`` and
``step`` and show its effect.  The rest show that what is decided once
never hides a refusal: a write that is refused is refused at the step
that makes it, after legal steps have filled the vocabulary's table, and
every value check stays per update.
"""

from __future__ import annotations


import pytest

from ealgebra import (
    FALSE,
    TRUE,
    ContractViolation,
    EalgebraError,
    Element,
    Footprint,
    FunctionName,
    IllegalUpdateError,
    Location,
    ModeError,
    ScriptedOracle,
    State,
    StaticMirror,
    Update,
    UpdateSet,
    UpdateTypeError,
    VocabularyError,
    agent_move,
    make_vocabulary,
    nupdates,
    parse_program,
    parse_state,
    run,
    step,
    updates,
)
from ealgebra import evaluator
from ealgebra.syntax import App, Atom, Block, Choose, Cond, Extend, Import, UpdateInstr, Var

A, B = Element.named("a"), Element.named("b")

ASKING = parse_program("""\
vocabulary:
  dynamic g/0
  external e/0
constants a, b
program:
  g := e
""")
ASKING_STATE = parse_state("", ASKING.vocabulary, constants=ASKING.constants)


def test_updates_reads_an_external_through_the_oracle():
    asked = []

    def oracle(fname, args):
        asked.append((fname, args))
        return B

    beta = updates(ASKING.prepared, ASKING_STATE, oracle=oracle, externals=ASKING.externals)
    assert beta == {Update(Location("g"), B)}
    assert asked == [("e", ())]


def test_updates_records_what_it_read_in_the_footprint():
    program = parse_program("vocabulary:\n  dynamic c/0, F/1\npragma integers\nprogram:\n"
                            "  if c < 5 then F(c) := c + 1 endif\n")
    state = parse_state("c = 2\nF(2) = 7", program.vocabulary, constants=program.constants)
    footprint = Footprint()
    beta = updates(program.prepared, state, footprint=footprint)
    assert beta == {Update(Location("F", (Element.integer(2),)), Element.integer(3))}
    assert footprint.locations == {Location("c")}
    assert footprint.names == set()


COPIER = parse_program("""\
vocabulary:
  dynamic Owner/1, Tag/1
constants p, q, a
module Copier:
  duplicate a as v
    Owner(v) := Self
  endduplicate
""")


def test_updates_scoped_to_a_module_mirrors_only_its_tables():
    program = COPIER.modules["Copier"]
    state = parse_state("Mod(p) = Copier\nOwner(a) = q\nTag(a) = q",
                        COPIER.vocabulary, constants=COPIER.constants)
    p, q, copy = Element.named("p"), Element.named("q"), Element.reserve(0)
    scoped = updates(program.prepared, state, env={"Self": p}, vocabulary=program.vocabulary)
    assert scoped == {
        Update(Location("Owner", (copy,)), p),
        Update(Location("Owner", (copy,)), q),
        Update(Location("Reserve", (copy,)), FALSE),
    }
    whole = updates(program.prepared, state, env={"Self": p})
    assert whole - scoped == {Update(Location("Tag", (copy,)), q)}
    # An agent's move evaluates with the module's scope.
    _, record = agent_move(COPIER, state, p)
    assert record.updates == scoped


def test_step_asks_the_oracle_at_its_step_index():
    oracle = ScriptedOracle.parse("step 3: e = b\n", ASKING.vocabulary)
    _, third = step(ASKING, ASKING_STATE, oracle, step_index=3)
    assert (third.index, third.oracle_qa) == (3, (("e", (), B),))
    assert third.updates == {Update(Location("g"), B)}
    _, first = step(ASKING, ASKING_STATE, oracle)
    assert first.oracle_qa == (("e", (), Element("logic", "undef")),)


def test_a_move_without_externals_gets_no_oracle_and_no_allocator(monkeypatch):
    program = parse_program("vocabulary:\n  dynamic c/0\nconstants a\nprogram:\n  c := a\n")
    state = parse_state("", program.vocabulary, constants=program.constants)

    def refused(*args):
        raise AssertionError("built for a program that does not need it")

    monkeypatch.setattr(evaluator, "ReserveAllocator", refused)
    monkeypatch.setattr("ealgebra.runner.OracleView", refused)
    trace = run(program, state, max_steps=3)
    assert [r.oracle_qa for r in trace.records] == [(), (), ()]
    assert trace.final_state.read(Location("c")) == A


def test_the_evaluator_is_prepared_once_per_vocabulary():
    program = parse_program("vocabulary:\n  dynamic c/0\nconstants a\nprogram:\n  c := a\n")
    state = parse_state("", program.vocabulary, constants=program.constants)
    run(program, state, max_steps=5)
    run(program, state, max_steps=5)
    assert len(program.prepared.__dict__["_prepared"]) == 1


def test_updates_and_nupdates_check_the_contract_once_per_rule_vocabulary_and_names(
    monkeypatch,
):
    checked = []
    original = evaluator._check_input

    def counting(rule, scope, bound, decls):
        checked.append((bound, decls))
        return original(rule, scope, bound, decls)

    monkeypatch.setattr(evaluator, "_check_input", counting)
    state = State(make_vocabulary([FunctionName("g", 0)]))
    rule = UpdateInstr("g", (), Var("x"))
    for _ in range(3):
        assert updates(rule, state, {"x": A}, decls=("x",)) == {Update(Location("g"), A)}
        assert nupdates(rule, state, {"x": B}, decls=("x",)) == {
            UpdateSet([Update(Location("g"), B)])
        }
    assert checked == [(("x",), ("x",))]
    updates(rule, state, {"x": A})
    assert checked == [(("x",), ("x",)), (("x",), ())]


SUGARED = Extend("F", ("y",), Block(()))
CLASHING = Block((Import(("y",), UpdateInstr("F", (Var("y"),), App("true"))),) * 2)
CHOOSING = Choose(("y",), "F", None, Block(()))


@pytest.mark.parametrize("rule,error,message", [
    ("F(a) := true", ContractViolation,
     "updates takes a parsed rule, not text; parse it with parse_rule_text"),
    (SUGARED, ModeError, "rule contains surface sugar; desugar it first"),
    (CLASHING, ContractViolation,
     "rule is not perspicuous for this state; apply make_perspicuous"),
    (CHOOSING, ModeError, "choose rules have no deterministic update set; use nupdates"),
], ids=["text", "sugared", "not-perspicuous", "choose"])
def test_updates_refuses_a_rule_again_on_every_call(rule, error, message):
    state = State(make_vocabulary([FunctionName("F", 1, is_relation=True)], with_reserve=True))
    for _ in range(2):  # a refusal is never kept
        with pytest.raises(EalgebraError) as refused:
            updates(rule, state)
        assert (type(refused.value), str(refused.value)) == (error, message)


# -- refusals -----------------------------------------------------------------

STEPPING = parse_program("""\
vocabulary:
  dynamic c/0
  static S/0
  relation R/0
constants a
pragma integers
program:
  c := c + 1
""")
START = parse_state("c = 0", STEPPING.vocabulary, constants=STEPPING.constants)
K = 4  # the step at which c = 3: the rules below write S or R wrongly only then


def at_three(wrong: UpdateInstr):
    """The program whose rule makes ``wrong`` at step ``K`` and counts up
    before, built from nodes: the parser refuses a static update."""
    c = App("c")
    count = UpdateInstr("c", (), App("+", (c, App("1"))))
    rule = Cond((
        (Atom(App("=", (c, App("3")))), wrong),
        (Atom(App("true")), Block((count, UpdateInstr("R", (), App("true"))))),
    ))
    return STEPPING._replace(rule=rule)


@pytest.mark.parametrize("wrong,error,message", [
    (UpdateInstr("S", (), App("a")), IllegalUpdateError, "S: static names cannot be updated"),
    (UpdateInstr("R", (), App("a")), UpdateTypeError,
     "R: relational location needs a Boolean value, got a"),
])
def test_a_wrong_write_is_refused_at_the_step_that_makes_it(wrong, error, message):
    program = at_three(wrong)
    before = run(program, START, max_steps=K - 1).final_state
    assert before.read(Location("c")) == Element.integer(3)
    for _ in range(2):  # a refusal is decided again, never kept
        with pytest.raises(error) as refused:
            run(program, START, max_steps=K)
        assert str(refused.value) == message
    state = START
    for index in range(1, K):
        state, _ = step(program, state, step_index=index)
    with pytest.raises(error, match=message):
        step(program, state, step_index=K)


def test_a_plain_write_of_a_static_name_is_refused_after_a_mirror_of_it():
    state = State(STEPPING.vocabulary)
    mirror = StaticMirror(Location("S"), A)
    fired, ok = state.fire_update_set(UpdateSet({mirror}))
    assert ok and fired.read(Location("S")) == A
    for _ in range(2):
        with pytest.raises(IllegalUpdateError, match="S: static names cannot be updated"):
            state.fire_update_set(UpdateSet({Update(Location("S"), A)}))


@pytest.mark.parametrize("name", ["3", "+"])
def test_a_numeral_is_refused_as_a_table_like_a_computed_name(name):
    # Under pragma integers a numeral is a static name whose value is
    # computed, so neither a mirror nor a state's tables may give it one.
    vocabulary = make_vocabulary([], integers=True)
    args = () if name == "3" else (Element.integer(1), Element.integer(1))
    mirror = StaticMirror(Location(name, args), Element.integer(4))
    for _ in range(2):
        with pytest.raises(IllegalUpdateError) as refused:
            State(vocabulary).fire_update_set(UpdateSet({mirror}))
        assert str(refused.value) == f"{name}: static names cannot be updated"
    with pytest.raises(VocabularyError) as refused:
        State(vocabulary, {name: {args: Element.integer(4)}})
    assert str(refused.value) == f"{name}: interpretation is fixed, not tabled"
    assert State(vocabulary).read(Location("3")) == Element.integer(3)


def test_every_reserve_write_is_checked():
    program = parse_program("vocabulary:\n  dynamic g/0\nprogram:\n"
                            "  import v\n    g := v\n  endimport\n")
    state = run(program, State(program.vocabulary), max_steps=1).final_state
    assert state.reserve_next == 1
    withdraw = Update(Location("Reserve", (Element.reserve(1),)), FALSE)
    assert state.fire_update_set(UpdateSet({withdraw}))[0].reserve_next == 2
    for bad in (
        Update(Location("Reserve", (Element.reserve(1),)), TRUE),
        Update(Location("Reserve", (A,)), FALSE),
    ):
        with pytest.raises(IllegalUpdateError, match="Reserve can only be withdrawn from"):
            state.fire_update_set(UpdateSet({withdraw, bad}))
