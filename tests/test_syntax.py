import random

import pytest

from ealgebra import (
    FunctionName,
    ParseError,
    desugar,
    format_rule,
    free_vars,
    bound_vars,
    is_perspicuous,
    make_perspicuous,
    make_vocabulary,
    parse_guard_text,
    parse_program,
    parse_rule_text,
)
from ealgebra.syntax import (
    App,
    Atom,
    Block,
    BoolGuard,
    Choose,
    Cond,
    Decl,
    Import,
    QuantGuard,
    TermRange,
    UniverseRange,
    UpdateInstr,
    Var,
    binder_occurrences,
)

from genrules import BASIC_VOCAB, gen_basic_rule


@pytest.fixture(scope="module")
def vocab():
    return make_vocabulary(
        [
            FunctionName("f", 1),
            FunctionName("g", 0),
            FunctionName("r", 1, is_relation=True),
            FunctionName("Nodes", 1, is_relation=True),
            FunctionName("Parent", 1),
            FunctionName("CurrentNode", 0),
            FunctionName("U", 1, is_relation=True, is_static=True),
            FunctionName("P", 1, is_relation=True, is_static=True),
            FunctionName("Leaf", 1, is_relation=True),
            FunctionName("a", 0, is_static=True),
            FunctionName("b", 0, is_static=True),
        ],
        with_reserve=True,
    )


def test_tree_rule_parses_to_three_clauses(tree_program):
    rule = tree_program.rule
    assert isinstance(rule, Cond)
    assert len(rule.clauses) == 3
    heads = [clause[1].fname for clause in rule.clauses]
    assert heads == ["c", "c", "c"]


def test_reserve_mention_is_rejected(vocab):
    with pytest.raises(ParseError):
        parse_rule_text("Reserve(g) := true", vocab)
    with pytest.raises(ParseError):
        parse_rule_text("if Reserve(g) then g := a endif", vocab)
    with pytest.raises(ParseError):
        parse_rule_text("choose v in Reserve\n f(v) := a\nendchoose", vocab)


def test_self_alias_expansion(philosophers):
    prog = philosophers.modules["Phil"]
    assert "Self" in {fn.name for fn in prog.vocabulary.names}
    # the alias Me disappears at parse time
    assert "Me" not in format_rule(prog.rule)
    assert "Self" in format_rule(prog.rule)


def test_self_cannot_be_updated():
    with pytest.raises(ParseError):
        parse_program(
            "vocabulary:\n  dynamic f/1\nmodule M:\n  Self := f(Self)\n"
        )


def test_variable_cannot_be_update_subject(vocab):
    with pytest.raises(ParseError):
        parse_rule_text("import v\n v := a\nendimport", vocab)


def test_static_subject_rejected(vocab):
    with pytest.raises(ParseError):
        parse_rule_text("a := b", vocab)


def test_relational_update_needs_boolean_rhs(vocab):
    with pytest.raises(ParseError):
        parse_rule_text("r(a) := g", vocab)
    parse_rule_text("r(a) := true", vocab)
    parse_rule_text("r(a) := f(a) = b", vocab)


def test_arity_mismatch_is_a_parse_error(vocab):
    with pytest.raises(ParseError):
        parse_rule_text("f(a, b) := a", vocab)


def test_free_and_bound_vars(vocab):
    rule = parse_rule_text(
        "import v\n Parent(v) := u\nendimport", vocab, scope=("u",)
    )
    assert free_vars(rule) == {"u"}
    assert bound_vars(rule) == {"v"}
    ground = parse_rule_text("g := a", vocab)
    assert free_vars(ground) == frozenset()


def test_parallel_import_is_closed_at_program_level():
    prog = parse_program(
        "vocabulary:\n  dynamic Parent/1\n  static relation U/1\n"
        "program:\n  Var u ranges over U\n  import v\n    Parent(v) := u\n  endimport\n"
    )
    assert free_vars(prog.rule) == frozenset()
    assert bound_vars(prog.rule) == {"u", "v"}


def test_quantified_guard_parsing(vocab):
    g = parse_guard_text("(exists v in U) Leaf(v)", vocab)
    assert isinstance(g, QuantGuard) and g.kind == "exists"
    g2 = parse_guard_text("not (forall v in U) r(v)", vocab)
    assert isinstance(g2, BoolGuard) and g2.op == "not"


def test_chained_equality_becomes_a_conjunction(vocab):
    g = parse_guard_text("f(a) = f(b) = a", vocab)
    assert isinstance(g, BoolGuard) and g.op == "and"


def test_desugar_extend_matches_nested_imports(vocab):
    rule = parse_rule_text(
        "extend Nodes with v1, v2\n"
        "  Parent(v1) := CurrentNode\n"
        "endextend",
        vocab,
    )
    core = desugar(rule)
    assert isinstance(core, Import) and core.vars == ("v1",)
    inner = core.body
    assert isinstance(inner, Import) and inner.vars == ("v2",)
    stmts = inner.body.rules
    assert stmts[0] == UpdateInstr("Nodes", (Var("v1"),), App("true"))
    assert stmts[1] == UpdateInstr("Nodes", (Var("v2"),), App("true"))
    assert stmts[2] == UpdateInstr("Parent", (Var("v1"),), App("CurrentNode"))


def test_desugar_multi_choose_nests(vocab):
    rule = parse_rule_text(
        "choose v1, v2 in U\n f(v1) := v2\nendchoose", vocab
    )
    core = desugar(rule)
    assert isinstance(core, Choose) and core.vars == ("v1",)
    assert isinstance(core.body, Choose) and core.body.vars == ("v2",)


def test_let_parses_as_a_singleton_range_declaration(vocab):
    rule = parse_rule_text("let x = f(a) in\n g := x\nendlet", vocab)
    assert isinstance(rule, Decl)
    assert rule.range == TermRange(App("f", (App("a"),)))
    assert desugar(rule) == rule  # already core


def test_desugar_case_to_elseif_cascade(vocab):
    rule = parse_rule_text(
        "case g of\n  a:\n    f(a) := b\n  b:\n    f(b) := a\n  else\n    g := a\nendcase",
        vocab,
    )
    core = desugar(rule)
    assert isinstance(core, Cond)
    assert len(core.clauses) == 3
    first_guard = core.clauses[0][0]
    assert first_guard == Atom(App("=", (App("g"), App("a"))))


def test_desugar_active_notation():
    prog = parse_program(
        "vocabulary:\n  dynamic Mod/1, Mod'/1\n  constants m\n"
        "pragma active\n"
        "program:\n  if Active(m) then Active(m) := false endif\n"
    )
    core = desugar(prog.rule, active=True)
    assert "Active" not in format_rule(core)
    assert "Mod'" in format_rule(core)


def test_desugar_is_idempotent_on_corpus(vocab):
    texts = [
        "extend Nodes with v1, v2\n f(v1) := v2\nendextend",
        "choose v1, v2 in U\n f(v1) := v2\nendchoose",
        "import v1, v2\n Parent(v1) := v2\nendimport",
        "case g of\n a:\n  g := b\nendcase",
    ]
    for text in texts:
        once = desugar(parse_rule_text(text, vocab))
        assert desugar(once) == once
        assert free_vars(once) == free_vars(parse_rule_text(text, vocab))


def test_make_perspicuous_renames_duplicate_imports(vocab):
    rule = parse_rule_text(
        "import v\n Parent(v) := CurrentNode\nendimport\n"
        "import v\n Parent(v) := CurrentNode\nendimport",
        vocab,
    )
    avoid = {fn.name for fn in vocab.names}
    assert not is_perspicuous(rule, avoid)
    fixed = make_perspicuous(rule, avoid)
    assert is_perspicuous(fixed, avoid)
    names = [r.vars[0] for r in fixed.rules]
    assert len(set(names)) == 2


def test_make_perspicuous_keeps_already_clean_rules(vocab):
    rule = parse_rule_text("import v\n Parent(v) := CurrentNode\nendimport", vocab)
    avoid = {fn.name for fn in vocab.names}
    assert make_perspicuous(rule, avoid) == rule


def test_make_perspicuous_renames_quantifier_collisions(vocab):
    g1 = parse_guard_text("(exists v in U) r(v)", vocab)
    g2 = parse_guard_text("(exists v in U) Leaf(v)", vocab)
    rule = Cond(((BoolGuard("and", (g1, g2)), UpdateInstr("g", (), App("a"))),))
    fixed = make_perspicuous(rule, {fn.name for fn in vocab.names})
    guard = fixed.clauses[0][0]
    v1 = guard.operands[0].var
    v2 = guard.operands[1].var
    assert v1 != v2


def test_perspicuous_binder_shadowing_a_function_name(vocab):
    rule = parse_rule_text("import g\n Parent(g) := a\nendimport", vocab)
    avoid = {fn.name for fn in vocab.names}
    fixed = make_perspicuous(rule, avoid)
    assert fixed.vars[0] != "g"


def test_make_perspicuous_primes_a_reused_binder_once_more_each_time():
    header = "vocabulary:\n  dynamic f/1\n  dynamic relation Q/1\nconstants a, b\nprogram:\n"
    clause = "  if Q(a) then\n    let {} = f(a) in\n      f(a) := b\n    endlet\n  endif\n"
    many = parse_program(header + clause.format("x") * 50)
    assert binder_occurrences(many.prepared) == ["x" + "'" * i for i in range(50)]
    mixed = parse_program(header + "".join(clause.format(v) for v in ("x", "x'", "x", "x'")))
    assert binder_occurrences(mixed.prepared) == ["x", "x'", "x''", "x'''"]


def test_round_trip_corpus(vocab):
    texts = [
        "g := f(a)",
        "skip",
        "if r(a) then g := a else g := b endif",
        "if r(a) and not r(b) then g := a endif",
        "if f(a) != undef then g := a\nelseif r(b) then g := b\nendif",
        "import v\n Parent(v) := CurrentNode\nendimport",
        "extend Nodes with v1, v2\n f(v1) := v2\nendextend",
        "choose v in U satisfying r(v)\n f(v) := a\nendchoose",
        "Var u ranges over U\nimport v\n Parent(v) := u\nendimport",
        "let x = f(a) in\n g := x\nendlet",
        "duplicate a as v\n f(v) := b\nendduplicate",
        "case g of\n  a, b:\n    g := a\n  else\n    g := b\nendcase",
        "if (exists v in U) r(v) implies r(a) then g := a endif",
        "g := a, f(a) := b",
    ]
    for text in texts:
        ast = parse_rule_text(text, vocab)
        printed = format_rule(ast)
        again = parse_rule_text(printed, vocab)
        assert again == ast, f"round trip failed for {text!r}:\n{printed}"


def test_round_trip_generated_basic_rules():
    rng = random.Random(1234)
    for _ in range(150):
        rule = gen_basic_rule(rng, depth=3)
        printed = format_rule(rule)
        again = parse_rule_text(printed, BASIC_VOCAB)
        assert again == rule, printed


def test_external_nesting_is_rejected():
    with pytest.raises(ParseError):
        parse_program(
            "vocabulary:\n  dynamic f/0\n  external e/1\n"
            "program:\n  f := e(e(f))\n"
        )


def test_external_update_subject_is_rejected():
    with pytest.raises(ParseError):
        parse_program(
            "vocabulary:\n  dynamic f/0\n  external e/1\n"
            "program:\n  e(f) := f\n"
        )


def test_undeclared_variable_in_program_is_rejected():
    with pytest.raises(ParseError):
        parse_program("vocabulary:\n  dynamic f/1\nprogram:\n  f(v) := v\n")


def test_integer_literals_need_the_pragma():
    with pytest.raises(ParseError):
        parse_program("vocabulary:\n  dynamic f/0\nprogram:\n  f := 1\n")


@pytest.mark.parametrize("name", ["1x", "a-b"])
def test_module_header_without_an_identifier_is_rejected(name):
    text = (
        "vocabulary:\n  dynamic X/0\n"
        f"module A:\n  X := A\nmodule {name}:\n  X := undef\n"
    )
    with pytest.raises(ParseError) as caught:
        parse_program(text)
    assert caught.value.line == 5


SECTION_ERRORS = [
    ("", "missing `program:` or `module Name:` section"),
    ("module A:\n  X := A\nmodule A:\n  X := undef\n", "module A declared twice"),
    ("module 3x:\n  X := undef\n", "line 3, column 1: bad module name: '3x'"),
    # A bad header is reported before a name declared twice.
    (
        "module A:\n  X := A\nmodule A:\n  X := undef\nmodule 3x:\n  X := undef\n",
        "line 7, column 1: bad module name: '3x'",
    ),
    # After `program:` every line is rule text.
    ("program:\n  X := undef\nmodule A:\n  X := undef\n", "line 5, column 1: unknown identifier: module"),
]


@pytest.mark.parametrize("sections, message", SECTION_ERRORS)
def test_section_errors_name_the_first_fault(sections, message):
    with pytest.raises(ParseError) as caught:
        parse_program("vocabulary:\n  dynamic X/0\n" + sections)
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# Nodes, programs, vocabularies and names are immutable values


def test_nodes_of_two_classes_with_equal_fields_are_unequal():
    assert Block(()) != Cond(())
    assert Var("x") != UniverseRange("x")
    assert Block(()) == Block(()) and Var("x") == Var("x")


def test_equal_nodes_built_apart_hash_alike(vocab):
    text = "if r(a) then f(a) := g else f(b) := a endif"
    one, two = parse_rule_text(text, vocab), parse_rule_text(text, vocab)
    assert one == two and one is not two
    assert hash(one) == hash(two)
    assert len({one, two, Block((one,))}) == 2


def test_fields_take_defaults_and_keywords():
    assert App("f") == App("f", ()) == App(args=(), fname="f")
    assert repr(App("f", (Var("x"),))) == "App(fname='f', args=(Var(name='x'),))"
    assert App("f")._replace(args=(Var("x"),)) == App("f", (Var("x"),))
    for bad in (lambda: App(), lambda: App("f", (), ()), lambda: App("f", fname="g"),
                lambda: App("f", arity=2), lambda: App("f")._replace(arity=2)):
        with pytest.raises(TypeError, match="App takes the fields fname, args"):
            bad()


@pytest.fixture(scope="module")
def values(vocab):
    program = parse_program("vocabulary:\n  dynamic c/0\nconstants a\nprogram:\n  c := a\n")
    return [
        (Var("x"), "name"),
        (parse_rule_text("f(a) := g", vocab), "rhs"),
        (program, "rule"),
        (vocab, "names"),
        (FunctionName("f", 1), "arity"),
    ]


def test_no_field_can_be_assigned_or_deleted(values):
    for value, field in values:
        before = repr(value)
        with pytest.raises(AttributeError, match=f"{type(value).__name__}.{field} cannot change"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"{type(value).__name__}.{field} cannot change"):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.other = None
        assert repr(value) == before


def test_values_computed_once_are_kept_on_the_instance(values):
    program = values[2][0]
    assert program.prepared is program.prepared
    assert "prepared" in program.__dict__
    assert program == program._replace() and "prepared" not in program._replace().__dict__
