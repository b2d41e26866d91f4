import random
from itertools import permutations

import pytest

from ealgebra import (
    FALSE,
    TRUE,
    UNDEF,
    ContractViolation,
    DuplicateError,
    Element,
    FunctionName,
    Location,
    ModeError,
    State,
    StaticMirror,
    Update,
    UpdateSet,
    eval_guard,
    eval_term,
    free_vars,
    make_perspicuous,
    make_vocabulary,
    normalize_guarded,
    nupdates,
    parse_guard_text,
    parse_rule_text,
    parse_state,
    parse_term_text,
    updates,
)
from ealgebra.syntax import (
    App,
    Atom,
    Block,
    BoolGuard,
    Cond,
    Decl,
    Duplicate,
    Extend,
    Import,
    QuantGuard,
    UniverseRange,
    UpdateInstr,
    Var,
    desugar,
    format_rule,
)

from genrules import (
    BASIC_VOCAB,
    CHOICE_VOCAB,
    choice_state,
    enumerate_basic_states,
    gen_basic_rule,
    gen_choice_rule,
)
from ealgebra import fun_of
from globaloracle import global_family
from quasioracle import successor_states

A, B, C = Element.named("a"), Element.named("b"), Element.named("c")
N0, N1, N2 = Element.named("n0"), Element.named("n1"), Element.named("n2")


def tree_vocab():
    return make_vocabulary(
        [
            FunctionName("c", 0),
            FunctionName("FirstChild", 1, is_static=True),
            FunctionName("NextSib", 1, is_static=True),
            FunctionName("Parent", 1, is_static=True),
        ]
    )


def tree_state(**rows):
    tables = {"c": {(): rows.get("c", N0)}}
    for name in ("FirstChild", "NextSib", "Parent"):
        if name in rows:
            tables[name] = rows[name]
    return State(tree_vocab(), tables)


TREE_RULE_TEXT = (
    "if FirstChild(c) != undef then c := FirstChild(c)\n"
    "elseif NextSib(c) != undef then c := NextSib(c)\n"
    "elseif Parent(c) != undef then c := Parent(c)\n"
    "endif"
)


# ---------------------------------------------------------------------------
# Terms and guards


def test_and_with_undef_argument():
    v = make_vocabulary([])
    s = State(v)
    t = parse_term_text("true and undef", v)
    assert eval_term(s, None, t) == UNDEF


def test_equality_is_the_identity_relation():
    v = make_vocabulary([FunctionName("a", 0, is_static=True)])
    s = State(v, {"a": {(): A}})
    assert eval_term(s, None, parse_term_text("a = a", v)) == TRUE
    assert eval_term(s, None, parse_term_text("a = undef", v)) == FALSE


def test_table_lookup_through_terms():
    s = tree_state(FirstChild={(N0,): N1})
    t = parse_term_text("FirstChild(c)", tree_vocab())
    assert eval_term(s, None, t) == N1


def test_unbound_variable_is_an_evaluation_error():
    from ealgebra import EvaluationError
    from ealgebra.syntax import Var

    with pytest.raises(EvaluationError):
        eval_term(State(make_vocabulary([])), None, Var("v"))


def test_vacuous_universal_is_true():
    v = make_vocabulary([FunctionName("U", 1, is_relation=True, is_static=True)])
    s = State(v)
    g = parse_guard_text("(forall v in U) true", v)
    assert eval_guard(s, None, g) is True
    assert eval_guard(s, None, parse_guard_text("(exists v in U) true", v)) is False


def test_existential_over_a_finite_extent():
    v = make_vocabulary(
        [
            FunctionName("U", 1, is_relation=True, is_static=True),
            FunctionName("Leaf", 1, is_relation=True),
        ]
    )
    s = State(v, {"U": {(N1,): TRUE, (N2,): TRUE}, "Leaf": {(N2,): TRUE}})
    assert eval_guard(s, None, parse_guard_text("(exists v in U) Leaf(v)", v))
    assert not eval_guard(s, None, parse_guard_text("(forall v in U) Leaf(v)", v))


def test_a_guard_reads_its_environment_and_leaves_it_as_it_was():
    v = make_vocabulary(
        [
            FunctionName("U", 1, is_relation=True, is_static=True),
            FunctionName("Leaf", 1, is_relation=True),
        ]
    )
    s = State(v, {"U": {(N1,): TRUE, (N2,): TRUE}, "Leaf": {(N2,): TRUE}})
    # (exists v in U) v = w, with w free: the quantifier binds v over env.
    g = QuantGuard("exists", "v", "U", Atom(App("=", (Var("v"), Var("w")))))
    for w, holds in ((N1, True), (A, False)):
        env = {"w": w}
        assert eval_guard(s, env, g) is holds
        assert eval_term(s, env, Var("w")) == w
        assert env == {"w": w}


TRUE_ATOM, FALSE_ATOM = Atom(App("true")), Atom(App("false"))


@pytest.mark.parametrize("guard", [
    BoolGuard("xor", (TRUE_ATOM, FALSE_ATOM)),
    BoolGuard("and", (TRUE_ATOM, TRUE_ATOM, FALSE_ATOM)),
    BoolGuard("and", (FALSE_ATOM,)),
    App("true"),
])
def test_malformed_guards_are_refused_when_compiled(guard):
    s = State(BASIC_VOCAB)
    with pytest.raises(TypeError):
        eval_guard(s, None, guard)
    # Compiling the rule refuses it, though its clause is never reached.
    rule = Cond(((TRUE_ATOM, Block(())), (guard, Block(()))))
    with pytest.raises(TypeError):
        updates(rule, s)


@pytest.mark.parametrize("entry,text,parser", [
    (lambda s, text: eval_guard(s, None, text), "true", "parse_guard_text"),
    (lambda s, text: eval_term(s, None, text), "g", "parse_term_text"),
    (lambda s, text: updates(text, s), "g := g", "parse_rule_text"),
    (lambda s, text: nupdates(text, s), "g := g", "parse_rule_text"),
    (lambda s, text: normalize_guarded(text), "g := g", "parse_rule_text"),
], ids=["eval_guard", "eval_term", "updates", "nupdates", "normalize_guarded"])
def test_text_is_refused_naming_its_parser(entry, text, parser):
    with pytest.raises(ContractViolation, match=parser):
        entry(State(BASIC_VOCAB), text)


def test_atomic_guard_agrees_with_term_evaluation():
    v = make_vocabulary([FunctionName("r", 1, is_relation=True), FunctionName("a", 0, is_static=True)])
    s = State(v, {"a": {(): A}, "r": {(A,): TRUE}})
    g = parse_guard_text("r(a)", v)
    t = parse_term_text("r(a)", v)
    assert eval_guard(s, None, g) is (eval_term(s, None, t) == TRUE)


# ---------------------------------------------------------------------------
# Deterministic update sets


def test_tree_rule_first_match(tree_program):
    rule = parse_rule_text(TREE_RULE_TEXT, tree_vocab())
    s = tree_state(NextSib={(N0,): N2})  # FirstChild(c)=undef, NextSib(c)=n2
    beta = updates(rule, s)
    assert beta == UpdateSet([Update(Location("c"), N2)])


def test_conditional_with_all_guards_false_gives_empty():
    rule = parse_rule_text(TREE_RULE_TEXT, tree_vocab())
    s = tree_state()  # no tree edges at all
    assert updates(rule, s) == UpdateSet()


def test_double_import_creates_two_children():
    v = make_vocabulary(
        [FunctionName("Parent", 1), FunctionName("CurrentNode", 0)],
        with_reserve=True,
    )
    s = State(v, {"CurrentNode": {(): N0}})
    rule = parse_rule_text(
        "import v\n Parent(v) := CurrentNode\nendimport\n"
        "import v'\n Parent(v') := CurrentNode\nendimport",
        v,
    )
    beta = updates(rule, s)
    fresh = sorted(
        (u.location.args[0] for u in beta if u.location.fname == "Parent"),
        key=Element.sort_key,
    )
    assert len(fresh) == 2 and fresh[0] != fresh[1]
    expected = UpdateSet(
        [
            Update(Location("Reserve", (fresh[0],)), FALSE),
            Update(Location("Reserve", (fresh[1],)), FALSE),
            Update(Location("Parent", (fresh[0],)), N0),
            Update(Location("Parent", (fresh[1],)), N0),
        ]
    )
    assert beta == expected


def test_parallel_import_one_child_per_declared_value():
    v = make_vocabulary(
        [
            FunctionName("Parent", 1),
            FunctionName("U", 1, is_relation=True, is_static=True),
        ],
        with_reserve=True,
    )
    u1, u2 = Element.named("u1"), Element.named("u2")
    s = State(v, {"U": {(u1,): TRUE, (u2,): TRUE}})
    rule = parse_rule_text(
        "Var u ranges over U\nimport v\n Parent(v) := u\nendimport", v
    )
    beta = updates(rule, s)
    children = {u.location.args[0]: u.value for u in beta if u.location.fname == "Parent"}
    assert len(children) == 2
    assert set(children.values()) == {u1, u2}
    s2, fired = s.fire_update_set(beta)
    assert fired and s2.audit_proviso() == []


def test_updates_rejects_choose_rules(choosedemo, choosedemo_state):
    from ealgebra import prepare_rule

    with pytest.raises(ModeError):
        updates(prepare_rule(choosedemo), choosedemo_state)


def test_updates_rejects_non_perspicuous_input():
    v = make_vocabulary(
        [FunctionName("Parent", 1), FunctionName("CurrentNode", 0)],
        with_reserve=True,
    )
    s = State(v)
    rule = parse_rule_text(
        "import v\n Parent(v) := CurrentNode\nendimport\n"
        "import v\n Parent(v) := CurrentNode\nendimport",
        v,
    )
    with pytest.raises(ContractViolation):
        updates(rule, s)


def test_contract_check_reads_the_state_on_every_call():
    # The rule-only facts are kept on the rule; the names the state, the
    # environment and the declarations bring are checked for every new
    # combination of them, and a refusal is never kept.
    names = [FunctionName("U", 1, is_relation=True, is_static=True),
             FunctionName("F", 1, is_relation=True)]
    plain = State(make_vocabulary(names))
    with_x = State(make_vocabulary(names + [FunctionName("x", 0)]))
    rule = Decl("x", UniverseRange("U"), UpdateInstr("F", (Var("x"),), App("true")))
    for entry in (updates, nupdates):
        assert entry(rule, plain) is not None
        with pytest.raises(ContractViolation):
            entry(rule, with_x)
        with pytest.raises(ContractViolation):
            entry(rule, plain, {"x": A})
        with pytest.raises(ContractViolation):
            entry(rule, plain, decls=("x",))
        assert entry(rule, plain) is not None
    free_too = Block((rule, UpdateInstr("F", (App("true"),), Var("x"))))
    with pytest.raises(ContractViolation):
        updates(free_too, plain)


def test_entry_points_reject_surface_and_non_perspicuous_rules():
    v = make_vocabulary([FunctionName("F", 1, is_relation=True)], with_reserve=True)
    s = State(v)
    enrol = UpdateInstr("F", (Var("y"),), App("true"))
    surface = Extend("F", ("y",), Block(()))
    twice = Block((Import(("y",), enrol), Import(("y",), enrol)))
    for entry in (updates, nupdates):
        with pytest.raises(ModeError):
            entry(surface, s)
        with pytest.raises(ModeError):
            entry(Import(("y", "z"), enrol), s)
        with pytest.raises(ContractViolation):
            entry(twice, s)
        assert entry(Import(("y",), enrol), s) is not None


def test_perspicuity_stipulation_fires_isomorphically():
    v = make_vocabulary(
        [FunctionName("Parent", 1), FunctionName("CurrentNode", 0)],
        with_reserve=True,
    )
    s = State(v, {"CurrentNode": {(): N0}})
    clash = parse_rule_text(
        "import v\n Parent(v) := CurrentNode\nendimport\n"
        "import v\n Parent(v) := CurrentNode\nendimport",
        v,
    )
    renamed = make_perspicuous(clash, {fn.name for fn in v.names})
    manual = parse_rule_text(
        "import v1\n Parent(v1) := CurrentNode\nendimport\n"
        "import v2\n Parent(v2) := CurrentNode\nendimport",
        v,
    )
    one, _ = s.fire_update_set(updates(renamed, s))
    two, _ = s.fire_update_set(updates(manual, s))
    assert one.isomorphic(two)


def test_import_allocator_orders_give_isomorphic_states():
    v = make_vocabulary(
        [FunctionName("Parent", 1), FunctionName("CurrentNode", 0)],
        with_reserve=True,
    )
    s = State(v, {"CurrentNode": {(): N0}})
    rule = parse_rule_text(
        "import v\n Parent(v) := CurrentNode\nendimport\n"
        "import v'\n Parent(v') := CurrentNode\nendimport",
        v,
    )

    class Shuffled(dict):
        """Serials in the custom offset order 3, 1: a different but still
        injective assignment, so the states fired are isomorphic."""

        def fresh(self, var, context):
            if (var, context) not in self:
                self[var, context] = Element.reserve(s.reserve_next + (3, 1)[len(self)])
            return self[var, context]

    forward = updates(rule, s)
    shuffled = updates(rule, s, alloc=Shuffled())
    s1, _ = s.fire_update_set(forward)
    s2, _ = s.fire_update_set(shuffled)
    assert s1 != s2
    assert s1.isomorphic(s2)
    assert s2.audit_proviso() == []


def test_block_updates_invariant_under_permutation():
    rng = random.Random(7)
    for _ in range(25):
        members = tuple(gen_basic_rule(rng, 1) for _ in range(3))
        state = next(enumerate_basic_states({"f", "g", "r"}))
        reference = updates(Block(members), state)
        for perm in permutations(members):
            assert updates(Block(tuple(perm)), state) == reference


def test_conditional_first_match_is_least_index():
    rng = random.Random(9)
    for _ in range(20):
        rule = gen_basic_rule(rng, 2)
        if not isinstance(rule, Cond):
            continue
        for state in list(enumerate_basic_states(fun_of(rule) & {"f", "g", "r"}))[:40]:
            beta = updates(rule, state)
            for i, (g, r) in enumerate(rule.clauses):
                if eval_guard(state, None, g):
                    assert beta == updates(r, state)
                    break
            else:
                assert beta == UpdateSet()


def test_appending_clauses_after_a_true_guard_changes_nothing():
    v = BASIC_VOCAB
    rule = parse_rule_text("if true then g := x endif", v)
    extended = Cond(rule.clauses + ((parse_guard_text("r(y)", v), parse_rule_text("g := y", v)),))
    for state in list(enumerate_basic_states({"g", "r"}))[:20]:
        assert updates(rule, state) == updates(extended, state)


# ---------------------------------------------------------------------------
# Families


def test_choose_free_rule_has_singleton_family():
    rule = parse_rule_text(TREE_RULE_TEXT, tree_vocab())
    s = tree_state(FirstChild={(N0,): N1})
    fam = nupdates(rule, s)
    assert fam == frozenset({updates(rule, s)})
    famg = global_family(rule, s)
    assert famg.sets == fam and not famg.contains_bottom


def test_choose_over_empty_universe():
    rule = parse_rule_text("choose v in U1\n f(a) := v\nendchoose", CHOICE_VOCAB)
    s = choice_state((), ())
    assert not nupdates(rule, s)
    famg = global_family(rule, s)
    assert famg.contains_bottom and not famg.sets
    assert successor_states(s, nupdates(rule, s)) == {s}
    assert successor_states(s, famg) == {s}


def test_choose_enumerates_the_extent():
    rule = parse_rule_text("choose v in U1\n f(a) := v\nendchoose", CHOICE_VOCAB)
    s = choice_state((A, B), ())
    fam = nupdates(rule, s)
    assert fam == frozenset(
        {
            UpdateSet([Update(Location("f", (A,)), A)]),
            UpdateSet([Update(Location("f", (A,)), B)]),
        }
    )


def test_all_fail_conditional_family_is_singleton_empty_set():
    rule = parse_rule_text("if false then f(a) := a endif", CHOICE_VOCAB)
    s = choice_state((A, B), ())
    fam = nupdates(rule, s)
    assert fam == frozenset({UpdateSet()})
    assert fam


def test_block_with_all_fail_conditional_keeps_branches():
    rule = parse_rule_text(
        "if false then f(a) := a endif\n"
        "choose v in U1\n f(a) := v\nendchoose",
        CHOICE_VOCAB,
    )
    s = choice_state((A, B), ())
    fam = nupdates(rule, s)
    assert len(fam) == 2


def test_qualified_choose_filters_and_global_keeps_bottom():
    rule = parse_rule_text(
        "choose v in U1 satisfying v = a\n f(a) := v\nendchoose", CHOICE_VOCAB
    )
    s = choice_state((A, B), ())
    fam = nupdates(rule, s)
    assert fam == frozenset({UpdateSet([Update(Location("f", (A,)), A)])})
    famg = global_family(rule, s)
    assert famg.sets == fam and famg.contains_bottom


def test_qualified_choose_with_no_witness_is_the_empty_family():
    rule = parse_rule_text(
        "choose v in U1 satisfying v = c\n f(a) := v\nendchoose", CHOICE_VOCAB
    )
    s = choice_state((A, B), ())
    assert not nupdates(rule, s)
    famg = global_family(rule, s)
    assert famg.contains_bottom and not famg.sets


def test_direct_and_global_agree_on_generated_rules():
    rng = random.Random(2024)
    states = [
        choice_state((A, B, C), (A,)),
        choice_state((A, B), (B, C)),
        choice_state((), (A, B)),
    ]
    for _ in range(60):
        rule = gen_choice_rule(rng, 2, 3)
        rule = make_perspicuous(desugar(rule), {fn.name for fn in CHOICE_VOCAB.names})
        for s in states:
            direct = successor_states(s, nupdates(rule, s))
            via_global = successor_states(s, global_family(rule, s))
            assert direct == via_global, format_rule(rule)


def test_declaration_semantics_matches_brute_force():
    v = make_vocabulary(
        [
            FunctionName("f", 1),
            FunctionName("U", 1, is_relation=True, is_static=True),
            FunctionName("b", 0, is_static=True),
        ]
    )
    s = State(v, {"U": {(A,): TRUE, (C,): TRUE}, "b": {(): B}})
    rule = parse_rule_text("Var u ranges over U\nf(u) := b", v)
    beta = updates(rule, s)
    brute = UpdateSet()
    body = parse_rule_text("f(u) := b", v, scope=("u",))
    for a in s.extent("U"):
        brute = brute.union(updates(body, s, {"u": a}, decls=("u",)))
    assert beta == brute


def test_declaration_with_empty_range_is_empty_not_inconsistent():
    v = make_vocabulary(
        [
            FunctionName("f", 1),
            FunctionName("g", 0),
            FunctionName("U", 1, is_relation=True, is_static=True),
            FunctionName("b", 0, is_static=True),
        ]
    )
    s = State(v, {"b": {(): B}})
    rule = parse_rule_text("g := b\nVar u ranges over U\nf(u) := b", v)
    beta = updates(rule, s)
    assert beta == UpdateSet([Update(Location("g"), B)])


def test_let_binds_once():
    v = make_vocabulary([FunctionName("f", 1), FunctionName("g", 0)])
    s = State(v, {"f": {(UNDEF,): A}})
    rule = parse_rule_text("let x = f(undef) in\n g := x\nendlet", v)
    assert updates(rule, s) == UpdateSet([Update(Location("g"), A)])
    # equivalent to manual substitution
    manual = parse_rule_text("g := f(undef)", v)
    assert updates(rule, s) == updates(manual, s)


# ---------------------------------------------------------------------------
# Duplication


def dup_vocab():
    return make_vocabulary(
        [
            FunctionName("f", 2),
            FunctionName("Tag", 1),
            FunctionName("Kind", 1, is_relation=True, is_static=True),
            FunctionName("a", 0, is_static=True),
            FunctionName("b", 0, is_static=True),
        ],
        with_reserve=True,
    )


def test_duplicate_mirrors_all_mixtures():
    v = dup_vocab()
    s = State(v, {"a": {(): A}, "b": {(): B}, "f": {(A, A): C}})
    beta = updates(Duplicate(parse_term_text("a", v), "v", parse_rule_text("Tag(v) := b", v, scope=("v",))), s)
    copy = next(u.location.args[0] for u in beta if u.location.fname == "Reserve")
    mixtures = {
        u.location.args: u.value for u in beta if u.location.fname == "f"
    }
    assert mixtures == {(A, copy): C, (copy, A): C, (copy, copy): C}
    s2, fired = s.fire_update_set(beta)
    assert fired
    # original and copy are indistinguishable as arguments for f
    for mix in ((A, A), (A, copy), (copy, A), (copy, copy)):
        assert s2.read(Location("f", mix)) == C
    # equality still tells them apart
    assert s2.read(Location("=", (A, copy))) == FALSE
    assert s2.read(Location("Tag", (copy,))) == B


def test_duplicate_mirrors_static_universes_through_mirror_updates():
    v = dup_vocab()
    s = State(v, {"a": {(): A}, "b": {(): B}, "Kind": {(A,): TRUE}})
    rule = parse_rule_text("duplicate a as v\n Tag(v) := b\nendduplicate", v)
    beta = updates(rule, s)
    mirrors = [u for u in beta if isinstance(u, StaticMirror)]
    assert len(mirrors) == 1 and mirrors[0].location.fname == "Kind"
    s2, fired = s.fire_update_set(beta)
    assert fired
    copy = mirrors[0].location.args[0]
    assert s2.read(Location("Kind", (copy,))) == TRUE


def test_duplicate_of_unmentioned_element_only_tags():
    v = dup_vocab()
    s = State(v, {"a": {(): A}, "b": {(): B}})
    rule = parse_rule_text("duplicate a as v\n Tag(v) := b\nendduplicate", v)
    beta = updates(rule, s)
    kinds = {u.location.fname for u in beta}
    assert kinds == {"Reserve", "Tag"}


def test_duplicate_of_undef_fails():
    v = dup_vocab()
    s = State(v, {"b": {(): B}})  # constant a uninterpreted: evaluates to undef
    rule = parse_rule_text("duplicate a as v\n Tag(v) := b\nendduplicate", v)
    with pytest.raises(DuplicateError):
        updates(rule, s)


# ---------------------------------------------------------------------------
# Guarded-update normal form


def test_normal_form_of_the_tree_rule():
    rule = parse_rule_text(TREE_RULE_TEXT, tree_vocab())
    normal = normalize_guarded(rule)
    printed = format_rule(normal)
    assert printed.splitlines()[0] == "if FirstChild(c) != undef then"
    assert "FirstChild(c) = undef and NextSib(c) != undef" in printed
    assert (
        "FirstChild(c) = undef and NextSib(c) = undef and Parent(c) != undef"
        in printed
    )
    assert isinstance(normal, Block) and len(normal.rules) == 3
    for member in normal.rules:
        assert isinstance(member, Cond) and len(member.clauses) == 1


def test_normal_form_of_a_single_update_is_guarded_by_true():
    rule = parse_rule_text("g := x", BASIC_VOCAB)
    normal = normalize_guarded(rule)
    assert format_rule(normal).startswith("if true then")


def test_normal_form_preserves_updates_exhaustively():
    rng = random.Random(31)
    for _ in range(40):
        rule = gen_basic_rule(rng, 2)
        normal = normalize_guarded(rule)
        names = fun_of(rule) & {"f", "g", "r"}
        for state in enumerate_basic_states(names):
            assert updates(rule, state) == updates(normal, state)


def test_normal_form_preserves_non_logic_names():
    rng = random.Random(32)
    logic = {fn.name for fn in make_vocabulary([]).names}
    for _ in range(40):
        rule = gen_basic_rule(rng, 2)
        normal = normalize_guarded(rule)
        assert fun_of(rule) - logic == fun_of(normal) - logic


def test_normal_form_rejects_binder_rules():
    v = make_vocabulary([FunctionName("Parent", 1)], with_reserve=True)
    rule = parse_rule_text("import v\n Parent(v) := undef\nendimport", v)
    with pytest.raises(ModeError):
        normalize_guarded(rule)
