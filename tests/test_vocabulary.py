import pytest

from ealgebra import (
    ContractViolation,
    DeclarationError,
    FunctionName,
    Location,
    State,
    VocabularyError,
    fun_of,
    make_vocabulary,
    parse_rule_text,
    parse_term_text,
)

BASIC = {"true", "false", "undef", "=", "and", "or", "not", "implies"}


def test_empty_vocabulary_is_exactly_the_logic_names():
    v = make_vocabulary([])
    assert {fn.name for fn in v.names} == BASIC


def test_user_names_are_added_to_the_logic_names():
    v = make_vocabulary([FunctionName("Fork", 1), FunctionName("Mode", 1)])
    assert {fn.name for fn in v.names} == BASIC | {"Fork", "Mode"}
    assert not v.require("Fork").is_static


def test_conflicting_redeclaration_of_a_logic_name_fails():
    with pytest.raises(DeclarationError):
        make_vocabulary([FunctionName("true", 1)])


def test_duplicate_identifier_with_different_signature_fails():
    with pytest.raises(DeclarationError):
        make_vocabulary([FunctionName("f", 1), FunctionName("f", 2)])
    # identical duplicate declarations are harmless
    v = make_vocabulary([FunctionName("f", 1), FunctionName("f", 1)])
    assert v.require("f").arity == 1


def test_a_negative_arity_is_a_declaration_error():
    with pytest.raises(DeclarationError, match="f: arity must be nonnegative"):
        FunctionName("f", -1)


@pytest.mark.parametrize("arity", ["2", 2.0, True, None])
def test_a_wrong_kind_arity_is_a_contract_violation(arity):
    with pytest.raises(ContractViolation) as refused:
        FunctionName("f", arity)
    assert str(refused.value) == f"FunctionName takes an int, not {type(arity).__name__}"


@pytest.mark.parametrize("entry", [1, "f", None, ("f", 1)])
def test_make_vocabulary_takes_only_function_names(entry):
    with pytest.raises(ContractViolation) as refused:
        make_vocabulary([FunctionName("g", 0), entry])
    assert str(refused.value) == (
        f"make_vocabulary takes a FunctionName, not {type(entry).__name__}"
    )


def test_equality_and_boolean_signatures():
    v = make_vocabulary([])
    eq = v.require("=")
    assert eq.arity == 2 and eq.is_relation and eq.is_static and eq.is_logic
    t, f, u = v.require("true"), v.require("false"), v.require("undef")
    assert t.is_relation and f.is_relation and not u.is_relation
    assert all(x.arity == 0 and x.is_static and x.is_logic for x in (t, f, u))


def test_reserve_is_logic_but_not_static():
    v = make_vocabulary([], with_reserve=True)
    r = v.require("Reserve")
    assert r.is_logic and r.is_relation and r.arity == 1 and not r.is_static


def test_self_is_a_nullary_logic_name():
    v = make_vocabulary([], with_self=True)
    s = v.require("Self")
    assert s.is_logic and s.arity == 0 and not s.is_static


def test_integer_background_names():
    v = make_vocabulary([], integers=True, modulus=3)
    assert v.require("+").is_static and v.require("<").is_relation
    lit = v.lookup("7")
    assert lit is not None and lit.arity == 0 and lit.is_static
    assert make_vocabulary([]).lookup("7") is None


@pytest.mark.parametrize("name", ["\u0663", "\u00b2"])  # Arabic-Indic three, superscript two
def test_only_ascii_digits_name_integers(name):
    v = make_vocabulary([], integers=True)
    assert v.lookup(name) is None
    with pytest.raises(VocabularyError, match=f"^unknown function name: {name}$"):
        State(v, {}).read(Location(name))
    assert State(v, {}).read(Location("3")) == State(v, {}).read(Location("03"))


def test_fun_of_scans_terms(tree_program):
    t = parse_term_text("Parent(c)", tree_program.vocabulary)
    assert fun_of(t) == {"Parent", "c"}


def test_fun_of_philosophers_program(philosophers):
    prog = philosophers.modules["Phil"]
    assert fun_of(prog) == {
        "Mode", "Fork", "Self", "think", "eat", "up", "down", "+", "1", "=", "and",
    }


def test_fun_of_import_rule_excludes_the_variable_and_reserve():
    v = make_vocabulary(
        [FunctionName("Parent", 1), FunctionName("CurrentNode", 0)],
        with_reserve=True,
    )
    rule = parse_rule_text(
        "import v\n  Parent(v) := CurrentNode\nendimport", v
    )
    assert fun_of(rule) == {"Parent", "CurrentNode"}


def test_fun_of_monotone_under_subterms(tree_program):
    v = tree_program.vocabulary
    inner = parse_term_text("FirstChild(c)", v)
    outer = parse_term_text("Parent(FirstChild(c))", v)
    assert fun_of(inner) <= fun_of(outer)
