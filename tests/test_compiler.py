"""Compiled terms and guards against the tree-walking interpreter, and the
compile cache.

``tests/interporacle.py`` keeps the interpreter with its own name
dispatch.  On random terms and guards, over vocabularies with integers
off, on, and on with a modulus, ``eval_term`` and ``eval_guard`` give the
interpreter's value or fail with its exception type and message: unbound
variables, unknown names, wrong arities, non-Boolean atoms, whole-table
reads of names that are no universe, and external functions with and
without an oracle.  A rule, guard or term object evaluated under several
vocabularies or sets of external names gives each one's own answer.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import interporacle

from ealgebra import (
    FALSE,
    TRUE,
    UNDEF,
    EalgebraError,
    Element,
    FunctionName,
    Location,
    State,
    Update,
    UpdateSet,
    VocabularyError,
    eval_guard,
    eval_term,
    format_element,
    make_vocabulary,
    nupdates,
    updates,
)
from ealgebra import evaluator
from ealgebra.syntax import (
    SKIP, App, Atom, Block, BoolGuard, Choose, Cond, QuantGuard, UpdateInstr, Var,
)

USER_NAMES = [
    FunctionName("f", 1),
    FunctionName("r", 1, is_relation=True),
    FunctionName("c", 0),
    FunctionName("U", 1, is_relation=True, is_static=True),
]
VOCABS = {
    "plain": make_vocabulary(USER_NAMES, with_reserve=True),
    "integers": make_vocabulary(USER_NAMES, with_reserve=True, integers=True),
    "mod 5": make_vocabulary(USER_NAMES, with_reserve=True, integers=True, modulus=5),
}
EXTERNALS = frozenset({"e", "k"})

# (name, arity) of the applications drawn: declared, logic and integer
# names at their arities, literals, externals, and names or arities that
# no vocabulary declares.
_NAMES = (
    ("f", 1), ("r", 1), ("c", 0), ("U", 1), ("Reserve", 1),
    ("true", 0), ("false", 0), ("undef", 0), ("=", 2),
    ("and", 2), ("or", 2), ("not", 1), ("implies", 2),
    ("+", 2), ("mod", 2), ("<", 2), ("0", 0), ("3", 0), ("12", 0),
    ("e", 1), ("k", 0),
    ("q", 0), ("f", 2), ("true", 1), ("3", 1), ("Reserve", 0),
)
ELEMENTS = (
    Element.named("a"), Element.named("b"), TRUE, FALSE, UNDEF,
    Element.integer(0), Element.integer(3), Element.integer(4), Element.integer(7),
    Element.reserve(0), Element.reserve(1),
)


def _app(name_arity, kids):
    name, arity = name_arity
    return st.tuples(*[kids] * arity).map(lambda args: App(name, args))


terms = st.recursive(
    st.one_of(
        st.sampled_from([Var("x"), Var("y"), Var("z")]),
        st.sampled_from([App(name) for name, arity in _NAMES if arity == 0]),
    ),
    lambda kids: st.sampled_from([na for na in _NAMES if na[1] > 0]).flatmap(
        lambda na: _app(na, kids)
    ),
    max_leaves=8,
)

# Comparisons and relation reads over variables bound by the environment
# or a quantifier, so that guards often get past their atoms.
operands = st.one_of(
    st.sampled_from([Var("x"), Var("y"), App("c"), App("3"), App("k")]),
    st.sampled_from([Var("x"), Var("w"), App("c")]).map(lambda a: App("f", (a,))),
)
comparisons = st.one_of(
    st.tuples(operands, operands).map(lambda pair: App("=", pair)),
    st.tuples(operands, operands).map(lambda pair: App("<", pair)),
    operands.map(lambda a: App("r", (a,))),
)

guards = st.recursive(
    st.one_of(terms, comparisons).map(Atom),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(("and", "or", "implies")), kids, kids).map(
            lambda t: BoolGuard(t[0], t[1:])
        ),
        kids.map(lambda g: BoolGuard("not", (g,))),
        st.tuples(
            st.sampled_from(("exists", "forall")),
            st.sampled_from(("x", "w")),
            st.sampled_from(("U", "r", "f")),
            kids,
        ).map(lambda t: QuantGuard(*t)),
    ),
    max_leaves=6,
)

elements = st.sampled_from(ELEMENTS)
# A state at reserve_next 1 stores @0 but not @1, which is still in the
# reserve; environments may bind @1, so that Reserve(x) reads true.
stored = st.sampled_from(ELEMENTS[:-1])
subsets = st.sets(stored)


@st.composite
def states(draw):
    vocabulary = VOCABS[draw(st.sampled_from(sorted(VOCABS)))]
    tables = {
        "f": {(a,): v for a, v in draw(st.dictionaries(stored, stored)).items()},
        "r": {(a,): TRUE for a in draw(subsets)},
        "U": {(a,): TRUE for a in draw(subsets)},
        "c": {(): draw(stored)},
    }
    return State(vocabulary, {k: v for k, v in tables.items() if v}, 1)


def answer(fname, args):
    key = fname + "".join(format_element(a) for a in args)
    return ELEMENTS[sum(map(ord, key)) % len(ELEMENTS)]


def outcome(entry, *args, **kwargs):
    try:
        return entry(*args, **kwargs)
    except EalgebraError as exc:
        return type(exc), str(exc)


calls = st.fixed_dictionaries({
    "oracle": st.sampled_from((None, answer)),
    "externals": st.sampled_from((EXTERNALS, frozenset())),
})
environments = st.fixed_dictionaries({"x": elements, "y": elements})


@settings(max_examples=500, deadline=None)
@given(terms, states(), environments, calls)
def test_terms_match_the_interpreter(t, state, env, call):
    assert outcome(eval_term, state, env, t, **call) == outcome(
        interporacle.eval_term, state, env, t, **call
    )


@settings(max_examples=500, deadline=None)
@given(guards, states(), environments, calls)
def test_guards_match_the_interpreter(g, state, env, call):
    assert outcome(eval_guard, state, env, g, **call) == outcome(
        interporacle.eval_guard, state, env, g, **call
    )


# ---------------------------------------------------------------------------
# The compile cache


def test_one_rule_under_two_vocabularies_gives_each_ones_answer():
    as_relation = make_vocabulary([FunctionName("f", 1, is_relation=True), FunctionName("g", 0)])
    as_function = make_vocabulary([FunctionName("f", 1), FunctionName("g", 0)])
    rule = UpdateInstr("g", (), App("f", (App("true"),)))
    for vocabulary, value in ((as_relation, FALSE), (as_function, UNDEF), (as_relation, FALSE)):
        state = State(vocabulary)
        expected = interporacle.updates(rule, state)
        assert updates(rule, state) == expected
        assert expected == UpdateSet([Update(Location("g"), value)])


def test_one_term_with_integers_on_and_off():
    on = make_vocabulary([], integers=True, modulus=5)
    off = make_vocabulary([])
    t = App("<", (App("12"), App("3")))  # 12 reads as 2 under mod 5
    assert eval_term(State(on), None, t) == TRUE
    off_outcome = outcome(eval_term, State(off), None, t)
    assert off_outcome == (VocabularyError, "unknown function name: 12")
    assert off_outcome == outcome(interporacle.eval_term, State(off), None, t)
    assert eval_term(State(on), None, t) == TRUE


def test_one_rule_under_two_sets_of_externals():
    vocabulary = make_vocabulary([FunctionName("e", 0), FunctionName("g", 0)])
    state = State(vocabulary, {"e": {(): Element.named("stored")}})
    rule = Cond(((Atom(App("=", (App("e"), App("e")))), UpdateInstr("g", (), App("e"))),))
    answers = {"oracle": lambda fname, args: Element.named("asked")}
    for externals, value in (({"e"}, "asked"), ((), "stored"), ({"e"}, "asked")):
        family = nupdates(rule, state, externals=externals, **answers)
        assert family == interporacle.nupdates(rule, state, externals=externals, **answers)
        (member,) = family
        assert [u.value for u in member] == [Element.named(value)]


def test_a_rule_is_compiled_once_per_vocabulary(monkeypatch):
    compiled = []
    original = evaluator._Compiler.rule

    def counting(self, node):
        compiled.append(node)
        return original(self, node)

    monkeypatch.setattr(evaluator._Compiler, "rule", counting)
    one, two = make_vocabulary([FunctionName("g", 0)]), make_vocabulary([FunctionName("g", 0)])
    rule = UpdateInstr("g", (), App("true"))
    for vocabulary in (one, one, two, two, one):
        updates(rule, State(vocabulary))
    assert compiled == [rule, rule]


def test_sibling_chooses_keep_one_member_per_update_set():
    # Each choose joins its results by update set: without that, nine
    # sibling chooses over four elements would carry 4^9 = 262,144 copies
    # of the one empty member.
    vocabulary = make_vocabulary([FunctionName("U", 1, is_relation=True)])
    state = State(vocabulary, {"U": {(Element.named(n),): TRUE for n in "abcd"}})
    rule = Block(tuple(Choose((f"x{i}",), "U", None, SKIP) for i in range(9)))
    code = evaluator._Compiler(vocabulary, frozenset()).rule(rule)
    run = evaluator._Run(state, {}, None, None, None, (), vocabulary)
    assert code(run, [[]]) == [[]]
