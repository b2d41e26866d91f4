"""Move results reused across the states of one enumeration.

``enumerate_reachable`` keeps each move's checked members under the
values its state holds at the move's footprint and reuses them at any
later state that holds the same values.  The properties compare it with
``enumoracle.enumerate_reference``, which evaluates every move afresh:
on the ``genrules`` basic and choice rules, alone and as the modules of
a spec, on rings of three to eight philosophers, and on the enumerate
pairings of ``programs/``, with budgets small enough to stop early.  The
edge cases pin what a reuse must keep apart (``reserve_next``, the
module an agent belongs to, a static relation that ``duplicate`` mirrors
onto one serial with different values in two branches), what is never
kept, and what a key holds: on the ring, only the dynamic locations a
move or a guard instance read, one shape per memo and one probe per
lookup.  The last part pins the sleep sets: pairs of moves that
conflict by one clause of ``runner._footprints_conflict`` each, a move
without a footprint, and the moves and agent listings an enumeration of
a ring saves.  The
properties also check the safety guard, whose instances
``enumerate_reachable`` keeps by the same rule, under the values they
read; the last tests pin how many guard instances that evaluates, after
agents' moves and after sequential steps, a move that writes the
quantified universe, and an instance whose footprint changes, and how
many it looks up: only those a move writes into, in ascending order, so
that the first error raised stays a whole evaluation's.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PROGRAMS, load_initial, load_program
from enumoracle import enumerate_reference, expand, reference_successors, summary
from genrules import BASIC_VOCAB, CHOICE_VOCAB, ELEMS, gen_basic_rule, gen_choice_rule, gen_guard
from genrules import A, B, C
from test_footprint import agent_spec, agent_states, states
from test_independence import reserve_spec
from test_golden_enumerate import CASES

from ealgebra import (
    EalgebraError,
    Element,
    EvaluationError,
    Location,
    State,
    UNDEF,
    distributed,
    enumerate_reachable,
    eval_guard,
    parse_guard_text,
    parse_program,
    parse_state,
    runner,
)
from ealgebra.syntax import App, Atom, BoolGuard, DistributedSpec, Program, QuantGuard, Var

seeds = st.integers(0, 10**6)
depths = st.integers(0, 6)
budgets = st.integers(1, 12)


def assert_same(target, initial, depth, budget, predicate=None):
    """The engine's report is the reference's, and each state's verdict is
    a fresh evaluation's; or both raise the same error."""
    kwargs = {"budget": budget, "predicate": predicate}
    try:
        got = enumerate_reachable(target, initial, depth, **kwargs)
    except EalgebraError as exc:
        with pytest.raises(type(exc)) as want:
            enumerate_reference(target, initial, depth, **kwargs)
        assert str(want.value) == str(exc)
        return
    assert summary(got) == summary(enumerate_reference(target, initial, depth, **kwargs))
    if predicate is not None:
        failing = [state for state, _ in got.states if not eval_guard(state, None, predicate)]
        assert [w.state for w in got.violations] == failing


@settings(max_examples=100, deadline=None)
@given(seeds, states(BASIC_VOCAB, ELEMS), depths, budgets)
def test_basic_rules_enumerate_as_the_reference(seed, state, depth, budget):
    rng = random.Random(seed)
    program = Program(BASIC_VOCAB, gen_basic_rule(rng, 1 + seed % 3))
    assert_same(program, state, depth, budget, gen_guard(rng, 1))


@settings(max_examples=100, deadline=None)
@given(seeds, states(CHOICE_VOCAB, (A, B, C)), depths, budgets)
def test_choice_rules_enumerate_as_the_reference(seed, state, depth, budget):
    program = Program(CHOICE_VOCAB, gen_choice_rule(random.Random(seed), 3, 2))
    assert_same(program, state, depth, budget)


RING_PROGRAMS = {
    name: (PROGRAMS / f"{name}.ea").read_text() for name in ("philosophers", "phil_steps")
}


def thinking_ring(n: int):
    """A ring of n philosophers, every one thinking, every fork down."""
    spec = parse_program(RING_PROGRAMS["philosophers"].replace("mod 3", f"mod {n}"))
    facts = "".join(
        f"Mod({i}) = Phil\nMode({i}) = think\nFork({i}) = down\nP({i}) = true\n"
        for i in range(n)
    )
    return spec, parse_state(facts, spec.vocabulary, constants=spec.constants)


@st.composite
def rings(draw, extra: str = ""):
    """A ring program on 3-8 seats, some of them agents, in any mode;
    ``extra`` holds more facts."""
    n = draw(st.integers(3, 8))
    spec = parse_program(RING_PROGRAMS[draw(st.sampled_from(sorted(RING_PROGRAMS)))]
                         .replace("mod 3", f"mod {n}"))
    modes = [c for c in spec.constants if c not in ("up", "down", "Phil")]
    facts = []
    for i in range(n):
        if draw(st.integers(0, 4)):
            facts.append(f"Mod({i}) = Phil")
        facts += [
            f"Mode({i}) = {draw(st.sampled_from(modes))}",
            f"Fork({i}) = {draw(st.sampled_from(('up', 'down')))}",
            f"P({i}) = true",
        ]
    facts.append(extra)
    return spec, parse_state("\n".join(facts), spec.vocabulary, constants=spec.constants)


# Guards whose ``or`` and ``implies`` join a quantifier, so that
# ``runner._split`` keeps them in the skeleton, with their violations on
# the ring of 10 to depth 4.
SKELETONS = {
    "Mode(0) = eat or (exists x in P) Mode(x) = think": 0,
    "Mode(0) = eat implies (forall x in P) Mode(x) != eat or x = 0": 32,
}

RING_GUARDS = (
    "(forall x in P) not (Mode(x) = eat and Mode(x + 1) = eat)",
    "not (exists i in P) (Mode(i) = eat and Mode(i + 1) = eat)",
    "(forall x in P) (Mode(x) = eat implies Fork(x) = up) and (exists y in P) Mode(y) = think",
    "(exists x in P) (forall y in P) (Mode(y) = eat implies y = x)",
    "Mode(0) = think or Fork(1) = down",
    *SKELETONS,
    # (forall x in P) Fork(Mode(x)), which the parser refuses: with
    # Fork(think) = true it raises once a philosopher stops thinking.
    QuantGuard("forall", "x", "P", Atom(App("Fork", (App("Mode", (Var("x"),)),)))),
)


@settings(max_examples=150, deadline=None)
@given(rings("Fork(think) = true"), st.sampled_from(RING_GUARDS), st.integers(0, 8),
       st.integers(1, 200))
def test_rings_enumerate_as_the_reference(ring, guard, depth, budget):
    spec, state = ring
    if isinstance(guard, str):
        guard = parse_guard_text(guard, spec.vocabulary)
    assert_same(spec, state, depth, budget, guard)


@pytest.mark.parametrize("text", sorted(SKELETONS))
def test_or_and_implies_skeletons_enumerate_as_the_reference(text):
    spec, state = thinking_ring(10)
    guard = parse_guard_text(text, spec.vocabulary)
    assert_same(spec, state, 4, 20000, guard)
    report = enumerate_reachable(spec, state, 4, predicate=guard)
    assert len(report.violations) == SKELETONS[text]


def enumerate_case(argv):
    """Program, state, depth and parsed assertion of a golden ``enumerate``
    case."""
    flags = dict(zip(argv[2::2], argv[3::2]))
    target = load_program(argv[1])
    assertion = flags.get("--assert")
    return (
        target, load_initial(flags["--state"], target), int(flags["--depth"]),
        None if assertion is None else parse_guard_text(assertion, target.vocabulary),
    )


ENUMERATE_CASES = sorted(name for name, argv in CASES.items() if argv[0] == "enumerate")


@pytest.mark.parametrize("name", ENUMERATE_CASES)
@settings(max_examples=8, deadline=None)
@given(budget=st.integers(1, 60))
def test_program_pairings_enumerate_as_the_reference(name, budget):
    target, initial, depth, assertion = enumerate_case(CASES[name])
    assert_same(target, initial, depth, budget, assertion)
    assert_same(target, initial, depth, 20000, assertion)


# ---------------------------------------------------------------------------
# Edge cases of a reuse


def labelled(target, state, memo=None):
    """The engine's successors of ``state`` as (label, successor) pairs,
    labelled by ``runner.move_label``, for comparison with ``enumoracle``'s
    ``reference_successors`` and ``expand``; ``memo`` keeps each mover's
    results as ``enumerate_reachable``'s does."""
    if isinstance(target, DistributedSpec):
        movers = [(a.element, a.program) for a in distributed.agents_of(target, state)]
    else:
        movers = [(None, target)]
    return [
        (runner.move_label(move), nxt)
        for agent, program in movers
        for move, nxt, _ in runner.successors(
            program, state, agent, None if memo is None else memo.setdefault(agent, {}),
        )
    ]


def count_updates(monkeypatch) -> list:
    """The states at which ``runner`` evaluates a rule, one entry each: a
    call of a prepared evaluator (``evaluator.prepared``)."""
    calls = []
    real = runner.prepared

    def counted(*args):
        evaluate = real(*args)

        def counting(state, *rest):
            calls.append(state)
            return evaluate(state, *rest)

        return counting

    monkeypatch.setattr(runner, "prepared", counted)
    return calls


IMPORTER = parse_program("""\
vocabulary:
  relation Node/1
  dynamic Seen/0, Other/0
constants done
program:
  if Seen = undef then
    import v
      Node(v) := true
    endimport
  endif
""")


def importer_state(text: str) -> State:
    return parse_state(text, IMPORTER.vocabulary, constants=IMPORTER.constants)


def test_an_import_reuses_only_at_the_same_reserve_next(monkeypatch):
    first, later = importer_state(""), importer_state("reserve: 3")
    unread = importer_state("Other = done")  # as first, off the footprint
    want = [reference_successors(IMPORTER, s) for s in (first, later, unread)]
    calls = count_updates(monkeypatch)
    memo: dict = {}
    assert [labelled(IMPORTER, s, memo) for s in (first, later, unread)] == want
    assert calls == [first, later]
    fresh = {
        args for state in (first, later)
        for _, args, _ in runner.successors(IMPORTER, state, None, memo[None])[0][1].facts("Node")
    }
    assert fresh == {(Element.reserve(0),), (Element.reserve(3),)}


MOVERS = parse_program("""\
# A walker becomes a sitter; a sitter that has walked spawns a walker.
vocabulary:
  dynamic Step/1
constants one, two, w, s
module Walker:
  if Step(Self) = undef then
    Step(Self) := one
  elseif Step(Self) = one then
    Mod(Self) := Sitter
  endif
module Sitter:
  if Step(Self) = one then
    Step(Self) := two
    import x
      Mod(x) := Walker
    endimport
  endif
""")


def test_moves_that_write_mod_create_and_rehome_agents():
    state = parse_state("Mod(w) = Walker\nMod(s) = Sitter", MOVERS.vocabulary,
                        constants=MOVERS.constants)
    assert_same(MOVERS, state, 6, 20000)
    walker, sitter, w = (state.read(Location(name)) for name in ("Walker", "Sitter", "w"))
    reached = [s for s, _ in enumerate_reachable(MOVERS, state, 6).states]
    assert any(s.read(Location("Mod", (w,))) == sitter for s in reached)
    assert any(
        args[0].kind == "reserve" and value == walker
        for s in reached for _, args, value in s.facts("Mod")
    )


SWAPPERS = parse_program("""\
# Every move writes Mod: agents change module, then leave.
vocabulary:
  dynamic Turned/1
constants one, a, b
module Left:
  Mod(Self) := Right, Turned(Self) := one
module Right:
  if Turned(Self) = one then Mod(Self) := undef else Mod(Self) := Left endif
""")


def test_moves_that_write_mod_list_the_agents_again():
    state = parse_state("Mod(a) = Left\nMod(b) = Right", SWAPPERS.vocabulary,
                        constants=SWAPPERS.constants)
    assert_same(SWAPPERS, state, 6, 20000)
    reached = [s for s, _ in enumerate_reachable(SWAPPERS, state, 6).states]
    # Two moves give b's module back: the root's agents, in a table a move wrote.
    assert sorted(reached[5].facts("Mod")) == sorted(state.facts("Mod"))
    assert not list(reached[-1].facts("Mod"))  # every agent has left


def test_a_reserve_read_is_never_kept():
    spec, state = reserve_spec()
    memo: dict = {}
    labelled(spec, state, memo)
    assert [bool(memo[Element.named(a)]) for a in ("g1", "g2", "p1", "p2")] == [
        True, True, False, False
    ]
    assert_same(spec, state, 4, 20000)


def test_a_ring_keys_each_move_and_instance_by_its_dynamic_reads(monkeypatch):
    # The philosopher i reads the constants think, down, eat and up and
    # the module name Phil too, and an instance reads the constant eat;
    # none of them is in a key, so each memo has one shape and a lookup
    # probes once.  Hits and misses are those of keys that held every read.
    spec, state = thinking_ring(10)
    guard = parse_guard_text(RING_GUARDS[0], spec.vocabulary)
    memos, lookups, probes = {}, [], []
    real_keep, real_recall, real_held = runner._keep, runner._recall, runner._held

    def keep(shapes, *args):
        memos[id(shapes)] = shapes
        return real_keep(shapes, *args)

    def recall(shapes, state):
        found = real_recall(shapes, state)
        lookups.append((bool(shapes), found is not None))
        return found

    def held(*args):
        probes.append(args)
        return real_held(*args)

    for name, fake in (("_keep", keep), ("_recall", recall), ("_held", held)):
        monkeypatch.setattr(runner, name, fake)
    enumerate_reachable(spec, state, 6, predicate=guard)
    hits = sum(hit for _, hit in lookups)
    assert (hits, len(lookups) - hits) == (752, 70)
    assert len(probes) == sum(shaped for shaped, _ in lookups) == 812
    i = [Element.integer(k) for k in range(10)]
    want = {
        frozenset({("Fork", (i[k],)), ("Fork", (i[(k + 1) % 10],)), ("Mod", (i[k],)),
                   ("Mode", (i[k],))})
        for k in range(10)
    } | {frozenset({("Mode", (i[k],)), ("Mode", (i[(k + 1) % 10],))}) for k in range(10)}
    shapes = [shape for memo in memos.values() for shape in memo]
    assert len(shapes) == len(memos) == 20
    assert {frozenset((fname, args) for fname, args, _ in at) for at, _ in shapes} == want


# Duplicating a chosen element of U mirrors S onto the copy @0: S(@0) is
# true when the original is a, false when it is b.  Both successors hold
# ptr = @0, and the next move reads S(@0) through ptr.
MIRRORS = parse_program("""\
vocabulary:
  dynamic ptr/0, seen/0
  static relation S/1, U/1
constants a, b, d, yes
module Dup:
  if ptr = undef then
    choose x in U
      duplicate x as v
        ptr := v
      endduplicate
    endchoose
  elseif S(ptr) then
    seen := yes
  endif
""")


def test_a_static_read_at_a_reserve_argument_stays_keyed():
    state = parse_state("Mod(d) = Dup\nU(a) = true\nU(b) = true\nS(a) = true",
                        MIRRORS.vocabulary, constants=MIRRORS.constants)
    guard = parse_guard_text("not S(ptr)", MIRRORS.vocabulary)
    assert_same(MIRRORS, state, 3, 20000, guard)
    report = enumerate_reachable(MIRRORS, state, 3, predicate=guard)
    seen = [s for s, _ in report.states if s.read(Location("seen")) != UNDEF]
    assert len(report.states) == 4 and len(seen) == 1
    assert len(report.violations) == 2  # the copy of a and its successor


CLASH = parse_program("""\
vocabulary:
  dynamic g/0, h/0, Other/0
constants a, b
program:
  if g = undef then h := a, h := b endif
""")


def test_a_reused_inconsistent_set_changes_nothing(monkeypatch):
    first = parse_state("", CLASH.vocabulary, constants=CLASH.constants)
    other = parse_state("Other = a", CLASH.vocabulary, constants=CLASH.constants)
    assert reference_successors(CLASH, other) == [("step", other)]
    calls = count_updates(monkeypatch)
    memo: dict = {}
    assert labelled(CLASH, first, memo) == [("step", first)]
    assert labelled(CLASH, other, memo) == [("step", other)]
    assert calls == [first]


@pytest.mark.parametrize("source", [
    # an external function
    "vocabulary:\n  dynamic g/0, Other/0\n  external e/0\nconstants a\n"
    "program:\n  g := e\n",
    # a universe read whole by choose, by a quantifier, by duplicate
    "vocabulary:\n  dynamic g/0, Other/0\n  static relation U/1\nconstants a\n"
    "program:\n  choose v in U\n    g := v\n  endchoose\n",
    "vocabulary:\n  dynamic g/0, Other/0\n  static relation U/1, V/1\nconstants a\n"
    "program:\n  choose v in V\n    g := v\n  endchoose\n",  # an empty family: noop
    "vocabulary:\n  dynamic g/0, Other/0\n  static relation U/1\nconstants a\n"
    "program:\n  if (forall v in U) v = a then g := a endif\n",
    "vocabulary:\n  dynamic g/0, Other/0\nconstants a\n"
    "program:\n  duplicate a as v\n    g := v\n  endduplicate\n",
])
def test_externals_and_whole_table_reads_are_never_kept(monkeypatch, source):
    program = parse_program(source)
    first = parse_state("U(a) = true" if "U/1" in source else "", program.vocabulary,
                        constants=program.constants)
    want = reference_successors(program, first)
    calls = count_updates(monkeypatch)
    memo: dict = {}
    assert [labelled(program, first, memo) for _ in "ab"] == [want, want]
    assert calls == [first, first]
    assert not any(memo.values())


def test_a_ring_of_six_evaluates_fewer_moves_than_it_expands(monkeypatch):
    spec, state = thinking_ring(6)
    calls = count_updates(monkeypatch)
    report = enumerate_reachable(spec, state, 20)
    assert not report.partial
    assert len(calls) < 6 * len(report.states)


# ---------------------------------------------------------------------------
# Sleep sets: a skipped move must commute with the move that found the state


def pair_spec(first: str, second: str) -> str:
    """Two modules, A and B, over the names both may read and write."""
    return (
        "vocabulary:\n  dynamic x/0, y/0, z/0, pa/0, pb/0\n  relation U/1\n"
        "constants one, two, c, a, b\n"
        f"module A:\n  {first}\nmodule B:\n  {second}\n"
    )


@settings(max_examples=100, deadline=None)
@given(seeds, agent_states(BASIC_VOCAB, ELEMS), depths, budgets)
def test_basic_agent_moves_enumerate_as_the_reference(seed, state, depth, budget):
    rng = random.Random(seed)
    rules = [gen_basic_rule(rng, 1 + seed % 3) for _ in "MN"]
    assert_same(agent_spec(BASIC_VOCAB, rules, "z"), state, depth, budget, gen_guard(rng, 2))


@settings(max_examples=100, deadline=None)
@given(seeds, agent_states(CHOICE_VOCAB, (A, B, C)), depths, budgets)
def test_choice_agent_moves_enumerate_as_the_reference(seed, state, depth, budget):
    rng = random.Random(seed)
    rules = [gen_choice_rule(rng, 3, 2) for _ in "MN"]
    # (forall|exists v in U1|U2) f(s) = t, over v, the constants and g.
    s, t = (rng.choice((Var("v"), App("a"), App("b"), App("g"))) for _ in "st")
    guard = QuantGuard(rng.choice(("forall", "exists")), "v", rng.choice(("U1", "U2")),
                       Atom(App("=", (App("f", (s,)), t))))
    assert_same(agent_spec(CHOICE_VOCAB, rules, "c"), state, depth, budget, guard)


# Each pair conflicts by one clause of ``_footprints_conflict`` only, and
# the state behind the move a sleep set would wrongly skip is reached
# through that move alone (or at a greater depth).
CONFLICTING_PAIRS = {
    "write into a read": ("if x = undef then y := one else y := two endif", "x := one"),
    "write into a write": ("z := one, pa := one", "z := two, pb := one"),
    "write into a quantified table": (
        "if (exists v in U) v = c then y := one else y := two endif", "U(c) := true",
    ),
    "write into a chosen table": ("choose v in U\n    y := v\n  endchoose", "U(c) := true"),
}


@pytest.mark.parametrize("pair", sorted(CONFLICTING_PAIRS))
@pytest.mark.parametrize("agents", ["a b", "b a"])  # which of A and B moves first
def test_conflicting_moves_are_never_asleep(pair, agents):
    spec = parse_program(pair_spec(*CONFLICTING_PAIRS[pair]))
    of_a, of_b = agents.split()
    state = parse_state(f"Mod({of_a}) = A\nMod({of_b}) = B", spec.vocabulary,
                        constants=spec.constants)
    for depth in range(1, 5):
        assert_same(spec, state, depth, 20000)
    # The agent labels too: choosing from U, A has no move until B fills U.
    for reached, _ in enumerate_reachable(spec, state, 4).states:
        assert labelled(spec, reached) == expand(spec, reached)


@pytest.mark.parametrize("guard,slept", [("e = undef", False), ("y = undef", True)])
def test_a_move_without_a_footprint_never_sleeps(monkeypatch, guard, slept):
    # A move of a program with externals is evaluated without a footprint.
    spec = parse_program(
        "vocabulary:\n  dynamic x/0, y/0\n  external e/0\nconstants one, a, b\n"
        f"module A:\n  if {guard} then y := one endif\nmodule B:\n  x := one\n"
    )
    state = parse_state("Mod(a) = A\nMod(b) = B", spec.vocabulary, constants=spec.constants)
    assert_same(spec, state, 3, 20000)
    calls = count_keys(monkeypatch)
    enumerate_reachable(spec, state, 3)
    keyed = len(calls)
    calls.clear()
    enumerate_reference(spec, state, 3)
    assert (keyed < len(calls)) == slept


def count_keys(monkeypatch) -> list:
    """One entry per ``State.canonical_key`` call."""
    calls = []
    real = State.canonical_key

    def counted(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(State, "canonical_key", counted)
    return calls


@pytest.mark.parametrize("n,depth,states,keys", [(4, 3, 7, 25), (10, 6, 123, 509)])
def test_asleep_moves_are_neither_fired_nor_keyed(monkeypatch, n, depth, states, keys):
    # Without sleep sets every successor and the root are keyed: 29 and 1,231.
    spec, state = thinking_ring(n)
    calls = count_keys(monkeypatch)
    report = enumerate_reachable(spec, state, depth)
    assert (len(report.states), len(calls)) == (states, keys)


def test_agents_are_listed_once_per_mod_table(monkeypatch):
    listed = []
    real = distributed.agents_of

    def counted(*args):
        listed.append(args[1])
        return real(*args)

    monkeypatch.setattr(distributed, "agents_of", counted)
    # No philosopher writes Mod: every state shares the initial table.
    spec, state = thinking_ring(10)
    assert len(enumerate_reachable(spec, state, 6).states) == 123
    assert listed == [state]
    # Every swapper's move writes Mod: each expanded state has a table of
    # its own, listed once.
    state = parse_state("Mod(a) = Left\nMod(b) = Right", SWAPPERS.vocabulary,
                        constants=SWAPPERS.constants)
    listed.clear()
    report = enumerate_reachable(SWAPPERS, state, 6)
    assert listed == [s for s, depth in report.states if depth < 6]
    assert len({id(s._tables.get("Mod")) for s in listed}) == len(listed) == 12


# ---------------------------------------------------------------------------
# The safety guard: an instance is evaluated again only at values not kept


def count_guards(monkeypatch) -> list:
    """The guards ``runner`` evaluates, one entry per evaluation."""
    calls = []
    real = runner.eval_guard

    def counted(state, env, guard, **kwargs):
        calls.append(guard)
        return real(state, env, guard, **kwargs)

    monkeypatch.setattr(runner, "eval_guard", counted)
    return calls


@pytest.mark.parametrize("n,depth,states,evaluations", [(4, 3, 7, 13), (10, 6, 123, 31)])
def test_a_move_evaluates_only_the_guard_instances_it_touches(
    monkeypatch, n, depth, states, evaluations,
):
    # Evaluated whole at every state, the n instances are evaluated 7 * 4 = 28
    # and 123 * 10 = 1,230 times.  Now the initial state evaluates the guard
    # whole, and each instance is evaluated once for each pair of values
    # (Mode(x), Mode(x + 1)) it meets: think/think, eat/think and think/eat.
    spec, state = thinking_ring(n)
    guard = parse_guard_text(RING_GUARDS[0], spec.vocabulary)
    calls = count_guards(monkeypatch)
    report = enumerate_reachable(spec, state, depth, predicate=guard)
    assert (len(report.states), len(calls)) == (states, evaluations)
    assert evaluations == 1 + 3 * n
    assert calls.count(guard) == 1


CYCLER = parse_program("""\
# Each step picks one element of U and moves its mode one on: a, b, c.
vocabulary:
  dynamic Mode/1
  static relation U/1
constants a, b, c, u1, u2, u3
program:
  choose x in U
    if Mode(x) = a then Mode(x) := b elseif Mode(x) = b then Mode(x) := c endif
  endchoose
""")


def test_a_sequential_program_reuses_the_guard_instances(monkeypatch):
    state = parse_state(
        "".join(f"U({u}) = true\nMode({u}) = a\n" for u in ("u1", "u2", "u3")),
        CYCLER.vocabulary, constants=CYCLER.constants,
    )
    guard = parse_guard_text("(forall x in U) not Mode(x) = c", CYCLER.vocabulary)
    calls = count_guards(monkeypatch)
    report = enumerate_reachable(CYCLER, state, 6, predicate=guard)
    # 3 ** 3 states; each of the 3 instances is evaluated once per mode of
    # its element.  Evaluated whole at every state: 27 whole evaluations.
    assert (len(report.states), len(report.violations)) == (27, 19)
    assert (len(calls), calls.count(guard)) == (1 + 9, 1)
    assert_same(CYCLER, state, 6, 20000, guard)


GUESTS = parse_program("""\
# A guest eats and then leaves: leaving writes Seated, the universe the
# guard below ranges over.
vocabulary:
  dynamic Mode/1
  relation Seated/1
constants think, eat, gone, a, b, c
module Guest:
  if Mode(Self) = think then
    Mode(Self) := eat
  elseif Mode(Self) = eat then
    Mode(Self) := gone, Seated(Self) := false
  endif
""")


def test_a_move_that_writes_the_universe_evaluates_the_guard_whole(monkeypatch):
    state = parse_state(
        "".join(f"Mod({g}) = Guest\nSeated({g}) = true\nMode({g}) = think\n" for g in "abc"),
        GUESTS.vocabulary, constants=GUESTS.constants,
    )
    guard = parse_guard_text("(exists x in Seated) Mode(x) = think", GUESTS.vocabulary)
    calls = count_guards(monkeypatch)
    report = enumerate_reachable(GUESTS, state, 6, predicate=guard)
    # The initial state, then the 7 states of thinking and eating guests
    # reuse instances; the other 19, found by a guest's leaving or from
    # such a state, evaluate the guard whole.
    assert (len(report.states), len(report.violations), calls.count(guard)) == (27, 8, 20)
    assert_same(GUESTS, state, 6, 20000, guard)


def test_an_instance_evaluated_again_keeps_its_new_footprint():
    # f(g) = undef reads f(a) at first; once A sets g to b it reads f(b),
    # which B's move then writes.
    spec = parse_program(
        "vocabulary:\n  dynamic g/0, f/1\nconstants a, b, one, p, q\n"
        "module A:\n  g := b\nmodule B:\n  f(b) := one\n"
    )
    state = parse_state("g = a\nMod(p) = A\nMod(q) = B", spec.vocabulary, constants=spec.constants)
    guard = parse_guard_text("f(g) = undef", spec.vocabulary)
    report = enumerate_reachable(spec, state, 2, predicate=guard)
    assert [w.moves for w in report.violations] == [["agent p", "agent q"]]
    assert_same(spec, state, 2, 20000, guard)


def count_lookups(monkeypatch) -> list:
    """The states at which ``runner`` looks a guard instance up, one entry
    per lookup."""
    calls = []
    real = runner._instance

    def counted(state, *args):
        calls.append(state)
        return real(state, *args)

    monkeypatch.setattr(runner, "_instance", counted)
    return calls


@pytest.mark.parametrize("n,depth,lookups", [(4, 3, 20), (10, 6, 324)])
def test_a_move_looks_up_only_the_guard_instances_it_writes(monkeypatch, n, depth, lookups):
    # Looked up at every state after the first, the n instances are looked
    # up 6 * 4 = 24 and 122 * 10 = 1,220 times.  Now the n children of the
    # initial state, evaluated whole, look up every instance; any later
    # state looks up only the two instances that read the Mode its move
    # wrote, and keeps its parent's values for the others.
    spec, state = thinking_ring(n)
    guard = parse_guard_text(RING_GUARDS[0], spec.vocabulary)
    calls = count_lookups(monkeypatch)
    report = enumerate_reachable(spec, state, depth, predicate=guard)
    assert len(calls) == lookups == n * n + 2 * (len(report.states) - 1 - n)


# Ten instances, F(a0) ... F(a9); A's second move makes F(a1) and F(a8)
# non-Boolean.  In a set the ids 1 and 8 iterate as 8, 1.
RAISERS = parse_program(
    "vocabulary:\n  dynamic F/1, g/0\n  static relation U/1\n"
    f"constants one, two, p, {', '.join(f'a{i}' for i in range(10))}\n"
    "module A:\n  if g = undef then g := one else F(a1) := one, F(a8) := two endif\n"
)


def test_the_first_instance_a_move_makes_raise_raises():
    state = parse_state(
        "Mod(p) = A\n" + "".join(f"U(a{i}) = true\nF(a{i}) = true\n" for i in range(10)),
        RAISERS.vocabulary, constants=RAISERS.constants,
    )
    guard = QuantGuard("forall", "x", "U", Atom(App("F", (Var("x"),))))
    with pytest.raises(EvaluationError, match="non-Boolean <one>"):
        enumerate_reachable(RAISERS, state, 2, predicate=guard)
    assert_same(RAISERS, state, 2, 20000, guard)


# Grow imports; Mark writes no location the guard reads.
GROWERS = parse_program("""\
vocabulary:
  relation Node/1, Seen/1
  dynamic Last/1
  static relation U/1
constants q1, q2, g, m
module Grow:
  import v
    Node(v) := true
    Last(Self) := v
  endimport
module Mark:
  Seen(Self) := true
""")


def test_an_import_looks_up_the_instances_that_read_reserve(monkeypatch):
    state = parse_state("Mod(g) = Grow\nMod(m) = Mark\nU(q1) = true\nU(q2) = true",
                        GROWERS.vocabulary, constants=GROWERS.constants)
    # (forall x in U) not Reserve(Last(x)), which the parser refuses: each
    # instance reads Last(q), which no move writes, and Reserve(undef).
    reads = Atom(App("Reserve", (App("Last", (Var("x"),)),)))
    guard = QuantGuard("forall", "x", "U", BoolGuard("not", (reads,)))
    calls = count_lookups(monkeypatch)
    report = enumerate_reachable(GROWERS, state, 4, predicate=guard)
    assert not report.violations
    # The two children of the initial state look up both instances.  Of
    # the later states, the three that g's imports find look both up again
    # (an import writes Reserve), the three that m's move finds none.
    assert (len(report.states), len(calls)) == (9, 2 * 2 + 3 * 2)
    assert_same(GROWERS, state, 4, 20000, guard)
