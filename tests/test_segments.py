"""Initial segments of partial runs: down-set enumeration, its budget, and
orders past the move counts the subset scan could afford."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from ealgebra import (
    BudgetError,
    CertificateError,
    Element,
    ScheduleError,
    check_partial_run,
    corollary1_holds,
    format_certificate,
    generate_partial_run,
    linearizations,
    parse_certificate,
    parse_program,
    parse_state,
)
from ealgebra import distributed
from ealgebra.distributed import (
    SEGMENT_BUDGET,
    PartialRun,
    _initial_segments,
    _order,
    _predecessor_closure,
    _topological_orders,
    segment_states,
)

from conftest import PROGRAMS
from segmentoracle import (
    eager_sigma,
    generated_sigma,
    initial_segments,
    maximal,
    scan_verdict,
    topological_orders,
    with_every_sigma,
)
from test_independence import _outcome

I = Element.integer


@st.composite
def dags(draw, max_moves=12):
    """Moves listed in a drawn order, with edges that follow another drawn
    order, so neither the listing nor the ids are topological."""
    n = draw(st.integers(0, max_moves))
    rank = draw(st.permutations([f"m{i}" for i in range(1, n + 1)]))
    pairs = [(rank[i], rank[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    moves = draw(st.permutations(rank))
    return tuple(moves), frozenset(edges)


@settings(max_examples=200, deadline=None)
@given(dags())
def test_down_sets_match_the_subset_scan(dag):
    moves, edges = dag
    order = _order(moves, edges)
    preds = _predecessor_closure(order)
    got = list(_initial_segments(order))
    assert [segment for segment, _ in got] == initial_segments(moves, preds)
    assert all(top == maximal(segment, preds) for segment, top in got)


def _naive_closure(moves, edges):
    below = {m: {a for a, b in edges if b == m} for m in moves}
    changed = True
    while changed:
        changed = False
        for m in moves:
            wider = below[m].union(*(below[p] for p in below[m]))
            if wider != below[m]:
                below[m], changed = wider, True
    if any(m in below[m] for m in moves):
        return None
    return {m: frozenset(below[m]) for m in moves}


@st.composite
def digraphs(draw, max_moves=8):
    """Any edges at all, self-loops and cycles included."""
    moves = tuple(f"m{i}" for i in range(draw(st.integers(1, max_moves))))
    edges = draw(st.sets(st.tuples(st.sampled_from(moves), st.sampled_from(moves))))
    return moves, edges


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_closure_matches_a_fixpoint_and_is_none_on_cycles(graph):
    moves, edges = graph
    order = _order(moves, edges)
    closure = None if order.topological is None else _predecessor_closure(order)
    assert closure == _naive_closure(moves, edges)


def chain_certificate(n: int) -> str:
    """One philosopher's n moves, in order, with the move lines reversed."""
    lines = [f"move m{i} by 0" for i in range(n, 0, -1)]
    lines += [f"order m{i} < m{i + 1}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def test_long_reverse_listed_chain_checks_valid(philosophers4, ring4):
    pr = parse_certificate(chain_certificate(1200), philosophers4)
    pr = pr._replace(states={frozenset(): ring4})
    verdict = check_partial_run(philosophers4, pr, initial_state=ring4)
    assert verdict.valid, verdict.message


def test_long_chain_has_one_linearization(philosophers4, ring4):
    pr = parse_certificate(chain_certificate(1200), philosophers4)
    pr = pr._replace(states={frozenset(): ring4})
    report = linearizations(philosophers4, pr)
    assert report.complete and len(report.traces) == 1
    assert len(report.traces[0].records) == 1200


@settings(max_examples=200, deadline=None)
@given(dags(max_moves=8), st.integers(0, 50))
def test_topological_orders_match_the_recursive_listing(dag, budget):
    moves, edges = dag
    order = _order(moves, edges)
    segment = frozenset(moves)
    assert _topological_orders(order, segment, budget) == topological_orders(
        segment, order.direct, budget
    )


def test_budget_admits_every_order_on_sixteen_moves():
    # Every order's segments are subsets, so sixteen moves with no order
    # between them hold the most: 16 * 2^15 moves in all.
    moves = tuple(f"m{i}" for i in range(16))
    assert len(list(_initial_segments(_order(moves, ())))) == 2**16
    assert 16 * 2**15 <= SEGMENT_BUDGET
    assert 17 * 2**16 > SEGMENT_BUDGET


def test_budget_counts_the_moves_the_segments_hold(monkeypatch):
    # Three moves with no order: eight segments holding 12 moves in all.
    order = _order(("a", "b", "c"), ())
    monkeypatch.setattr(distributed, "SEGMENT_BUDGET", 12)
    assert len(list(_initial_segments(order))) == 8
    monkeypatch.setattr(distributed, "SEGMENT_BUDGET", 11)
    with pytest.raises(BudgetError):
        list(_initial_segments(order))
    # A chain of three: principal segments of 1 + 2 + 3 moves.
    chain = _order(("a", "b", "c"), {("a", "b"), ("b", "c")})
    monkeypatch.setattr(distributed, "SEGMENT_BUDGET", 6)
    assert _predecessor_closure(chain) == {
        "a": frozenset(), "b": {"a"}, "c": {"a", "b"},
    }
    monkeypatch.setattr(distributed, "SEGMENT_BUDGET", 5)
    with pytest.raises(BudgetError):
        _predecessor_closure(chain)


def ring(n: int):
    spec = parse_program(
        (PROGRAMS / "philosophers4.ea").read_text().replace("mod 4", f"mod {n}")
    )
    facts = "".join(
        f"Mod({i}) = Phil\nMode({i}) = think\nFork({i}) = down\nP({i}) = true\n"
        for i in range(n)
    )
    return spec, parse_state(facts, spec.vocabulary, constants=spec.constants)


def no_rules(*args, **kwargs):
    raise AssertionError("a rule was evaluated")


def antichain(state, seats):
    """One move by each seat, with no order between them."""
    moves = tuple(f"m{i}" for i in range(len(seats)))
    return PartialRun(moves, {m: I(s) for m, s in zip(moves, seats)}, frozenset(),
                      {frozenset(): state})


def count_rules(monkeypatch) -> list:
    """The moves whose rule ``check_partial_run`` evaluates, one entry each."""
    calls = []
    real = distributed.resolutions

    def counted(program, state, **kwargs):
        calls.append(kwargs["agent"])
        return real(program, state, **kwargs)

    monkeypatch.setattr(distributed, "resolutions", counted)
    return calls


def test_adjacent_antichain_past_the_budget_stops_after_the_pass(monkeypatch):
    # Seats 0 and 1 share a fork, so the independence pass stops at its
    # second move, m1; the segment scan then lists segments until the budget.
    spec, state = ring(18)
    calls = count_rules(monkeypatch)
    with pytest.raises(BudgetError):
        check_partial_run(spec, antichain(state, range(17)), initial_state=state)
    assert calls == [I(0), I(1)]


def test_sixteen_neighbours_refute_at_their_first_pair_at_once(monkeypatch):
    # Sixteen moves with no order: their segments hold 16 * 2^15 moves,
    # within the budget, so the scan fires each level as it is listed and
    # stops at {m0, m1}, where seats 0 and 1 share a fork.
    spec, state = ring(17)
    calls = count_rules(monkeypatch)
    start = time.perf_counter()
    verdict = check_partial_run(spec, antichain(state, range(16)), initial_state=state)
    elapsed = time.perf_counter() - start
    assert (verdict.condition, verdict.witness) == ("4", frozenset({"m0", "m1"}))
    assert verdict.message == (
        "segment {m0, m1}: firing m1 and m0 last disagree on the resulting state"
    )
    # The pass evaluates m0 and m1; the scan each move at the base (level
    # 1, in sorted ids), then m0 and m1 at {m0, m1} (level 2), and no
    # move after that.
    level_one = [I(int(m[1:])) for m in sorted(f"m{i}" for i in range(16))]
    assert calls == [I(0), I(1), *level_one, I(0), I(1)]
    assert elapsed < 0.1


@pytest.mark.parametrize("k", [17, 64])
def test_antichains_of_non_neighbours_check_valid(monkeypatch, k):
    # The even seats of a ring of 2k share no fork: each move is evaluated
    # once, where the segment scan would go past its budget.
    spec, state = ring(2 * k)
    calls = count_rules(monkeypatch)
    verdict = check_partial_run(
        spec, antichain(state, range(0, 2 * k, 2)), initial_state=state
    )
    assert verdict.valid, verdict.message
    assert len(calls) == k


def test_sixteen_move_antichain_checks_in_half_a_second():
    spec, state = ring(32)
    pr = antichain(state, range(0, 32, 2))
    start = time.perf_counter()
    assert check_partial_run(spec, pr, initial_state=state).valid
    assert time.perf_counter() - start < 0.5


def test_chain_past_the_budget_stops_while_its_closure_is_built(
    monkeypatch, philosophers4, ring4
):
    # 1,500 moves: their principal segments alone hold 1,500 * 1,501 / 2.
    pr = parse_certificate(chain_certificate(1500), philosophers4)
    pr = pr._replace(states={frozenset(): ring4})
    monkeypatch.setattr(distributed, "resolutions", no_rules)
    monkeypatch.setattr(distributed, "_initial_segments", no_rules)
    with pytest.raises(BudgetError):
        check_partial_run(philosophers4, pr, initial_state=ring4)


@pytest.mark.parametrize("k", [14, 17, 64])
def test_non_neighbours_generate_one_sigma_block(monkeypatch, k):
    # The even seats of a ring of 2k: 2^k initial segments, none of whose
    # states the certificate stores but the empty segment's.
    spec, state = ring(2 * k)
    pr = generate_partial_run(spec, state, [I(s) for s in range(0, 2 * k, 2)])
    assert pr.edges == frozenset() and pr.states == {frozenset(): state}
    text = format_certificate(pr)
    assert text.count("endsigma") == 1
    again = parse_certificate(text, spec)
    assert (again.moves, again.agent_of, again.edges) == (pr.moves, pr.agent_of, pr.edges)
    assert (dict(again.recorded), again.states) == (pr.recorded, pr.states)
    calls = count_rules(monkeypatch)
    verdict = check_partial_run(spec, again, initial_state=state)
    assert verdict.valid, verdict.message
    assert len(calls) == k


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=12))
))
def test_segment_states_of_generated_runs_match_every_segment_loop(case):
    n, agents = case
    spec, state = ring(n)
    pr = generate_partial_run(spec, state, [I(a) for a in agents])
    assert pr.states == {frozenset(): state}
    assert segment_states(spec, pr) == generated_sigma(pr)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 8).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), min_size=13, max_size=20)
    )
))
def test_generated_ring_runs_past_twelve_moves_check_valid(case):
    n, agents = case
    spec, state = ring(n)
    pr = generate_partial_run(spec, state, [I(a) for a in agents])
    verdict = check_partial_run(spec, pr, initial_state=state)
    assert verdict.valid, verdict.message
    for segment, sigma in segment_states(spec, pr).items():
        if len(segment) <= 3:
            report = linearizations(spec, pr, segment)
            assert corollary1_holds(report)
            assert report.traces[0].final_state == sigma


@st.composite
def mutated_runs(draw):
    """A generated run on a small ring, with sigma on its empty segment or
    on every segment, with or without its recorded update sets (the
    philosophers need none), then one mutation: an edge dropped or added,
    two sigma entries swapped, or a move's agent relabelled."""
    n = draw(st.integers(3, 6))
    spec, state = ring(n)
    agents = draw(st.lists(st.integers(0, n - 1), max_size=7))
    pr = generate_partial_run(spec, state, [I(a) for a in agents])
    if draw(st.booleans()):
        pr = with_every_sigma(spec, pr)
    if draw(st.booleans()):
        pr = pr._replace(recorded=None)
    mutation = draw(st.sampled_from(["none", "drop", "add", "swap", "relabel"]))
    if mutation == "drop" and pr.edges:
        pr = pr._replace(edges=pr.edges - {draw(st.sampled_from(sorted(pr.edges)))})
    elif mutation == "add" and len(pr.moves) > 1:
        a, b = draw(st.lists(st.sampled_from(pr.moves), min_size=2, max_size=2, unique=True))
        pr = pr._replace(edges=pr.edges | {(a, b)})
    elif mutation == "swap" and len(pr.states) > 1:
        keys = sorted(pr.states, key=lambda k: (len(k), sorted(k)))
        a, b = draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2, unique=True))
        pr = pr._replace(states={**pr.states, a: pr.states[b], b: pr.states[a]})
    elif mutation == "relabel" and pr.moves:
        move, seat = draw(st.sampled_from(pr.moves)), draw(st.integers(0, n - 1))
        pr = pr._replace(agent_of={**pr.agent_of, move: I(seat)})
    return spec, pr


@settings(max_examples=200, deadline=None)
@given(mutated_runs())
def test_check_partial_run_agrees_with_the_eager_scan(case):
    # The verdict with the independence pass, and with the pass declining
    # and the lazy scan deciding, each equal the eager scan's: verdict,
    # condition, message and witness, or the same error.
    spec, pr = case
    eager = _outcome(lambda: scan_verdict(spec, pr, eager_sigma))
    assert _outcome(lambda: check_partial_run(spec, pr)) == eager
    assert _outcome(lambda: scan_verdict(spec, pr, distributed._sigma)) == eager


def test_generated_certificates_past_twelve_moves_round_trip(philosophers4, ring4):
    pr = with_every_sigma(
        philosophers4, generate_partial_run(philosophers4, ring4, [I(0), I(2)] * 8)
    )
    assert len(pr.moves) == 16 and len(pr.states) == 9 * 9  # two 8-move chains
    again = parse_certificate(format_certificate(pr), philosophers4)
    assert dict(again.states) == dict(pr.states)
    assert check_partial_run(philosophers4, again, initial_state=ring4).valid


def test_sigma_keys_and_linearized_segments_must_be_down_sets(philosophers4, ring4):
    pr = parse_certificate(chain_certificate(3), philosophers4)
    pr = pr._replace(states={frozenset(): ring4, frozenset({"m1", "m3"}): ring4})
    verdict = check_partial_run(philosophers4, pr, initial_state=ring4)
    assert (verdict.condition, verdict.message) == (
        "certificate", "sigma key {m1, m3} is not an initial segment"
    )
    with pytest.raises(CertificateError, match="not an initial segment"):
        linearizations(philosophers4, pr, {"m1", "m3"})


def test_an_edge_to_an_unknown_move_is_a_certificate_error(philosophers4, ring4):
    pr = parse_certificate(chain_certificate(2) + "order m2 < zz\n", philosophers4)
    pr = pr._replace(states={frozenset(): ring4})
    for call in (segment_states, linearizations):
        with pytest.raises(CertificateError, match=r"edge \(m2, zz\) names unknown moves"):
            call(philosophers4, pr)


def test_linearizing_a_segment_of_unknown_moves_is_a_certificate_error(philosophers4, ring4):
    pr = parse_certificate(chain_certificate(2), philosophers4)
    pr = pr._replace(states={frozenset(): ring4})
    with pytest.raises(CertificateError, match="not an initial segment"):
        linearizations(philosophers4, pr, {"zz"})


def test_a_move_without_an_agent_label_is_a_certificate_error(philosophers4, ring4):
    pr = PartialRun(("m1", "m2"), {"m1": I(0)}, frozenset({("m1", "m2")}),
                    {frozenset(): ring4})
    for call in (segment_states, linearizations):
        with pytest.raises(CertificateError, match="move m2 has no agent label"):
            call(philosophers4, pr)


def test_a_cycle_is_named_alike_by_every_entry_point(philosophers4, ring4):
    pr = parse_certificate(chain_certificate(2) + "order m2 < m1\n", philosophers4)
    pr = pr._replace(states={frozenset(): ring4})
    message = check_partial_run(philosophers4, pr).message
    assert message == distributed._CYCLE
    for call in (segment_states, linearizations):
        with pytest.raises(CertificateError) as raised:
            call(philosophers4, pr)
        assert str(raised.value) == message


@pytest.mark.parametrize("budget", [0, -1])
def test_linearizations_need_a_positive_budget(philosophers4, ring4, budget):
    pr = parse_certificate(chain_certificate(2), philosophers4)
    pr = pr._replace(states={frozenset(): ring4})
    with pytest.raises(ScheduleError, match="budget must be positive"):
        linearizations(philosophers4, pr, budget=budget)
