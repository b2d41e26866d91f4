"""Initial segments of partial runs: down-set enumeration, its budget, and
orders past the move counts the subset scan could afford."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ealgebra import (
    BudgetError,
    CertificateError,
    Element,
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
)

from conftest import PROGRAMS
from segmentoracle import initial_segments, maximal

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
    got = _initial_segments(order)
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
    pr.states = {frozenset(): ring4}
    verdict = check_partial_run(philosophers4, pr, initial_state=ring4)
    assert verdict.valid, verdict.message


def test_budget_admits_every_order_on_sixteen_moves():
    # Every order's segments are subsets, so sixteen moves with no order
    # between them hold the most: 16 * 2^15 moves in all.
    moves = tuple(f"m{i}" for i in range(16))
    assert len(_initial_segments(_order(moves, ()))) == 2**16
    assert 16 * 2**15 <= SEGMENT_BUDGET
    assert 17 * 2**16 > SEGMENT_BUDGET


def test_budget_counts_the_moves_the_segments_hold(monkeypatch):
    # Three moves with no order: eight segments holding 12 moves in all.
    order = _order(("a", "b", "c"), ())
    monkeypatch.setattr(distributed, "SEGMENT_BUDGET", 12)
    assert len(_initial_segments(order)) == 8
    monkeypatch.setattr(distributed, "SEGMENT_BUDGET", 11)
    with pytest.raises(BudgetError):
        _initial_segments(order)
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


def test_antichain_past_the_budget_stops_before_any_rule(monkeypatch):
    spec, state = ring(18)
    moves = tuple(f"m{i}" for i in range(17))
    pr = PartialRun(moves, {m: I(i) for i, m in enumerate(moves)}, frozenset(),
                    {frozenset(): state})
    monkeypatch.setattr(distributed, "resolutions", no_rules)
    with pytest.raises(BudgetError):
        check_partial_run(spec, pr, initial_state=state)


def test_chain_past_the_budget_stops_while_its_closure_is_built(
    monkeypatch, philosophers4, ring4
):
    # 1,500 moves: their principal segments alone hold 1,500 * 1,501 / 2.
    pr = parse_certificate(chain_certificate(1500), philosophers4)
    pr.states = {frozenset(): ring4}
    monkeypatch.setattr(distributed, "resolutions", no_rules)
    monkeypatch.setattr(distributed, "_initial_segments", no_rules)
    with pytest.raises(BudgetError):
        check_partial_run(philosophers4, pr, initial_state=ring4)


def test_generation_past_the_budget_raises_budget_error():
    spec, state = ring(34)
    with pytest.raises(BudgetError):  # 17 philosophers, no two neighbours
        generate_partial_run(spec, state, [I(2 * i) for i in range(17)])


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
    for segment, sigma in pr.states.items():
        if len(segment) <= 3:
            report = linearizations(spec, pr, segment)
            assert corollary1_holds(report)
            assert report.traces[0].final_state == sigma


def test_generated_certificates_past_twelve_moves_round_trip(philosophers4, ring4):
    pr = generate_partial_run(philosophers4, ring4, [I(0), I(2)] * 8)
    assert len(pr.moves) == 16 and len(pr.states) == 9 * 9  # two 8-move chains
    again = parse_certificate(format_certificate(pr), philosophers4)
    assert dict(again.states) == dict(pr.states)
    assert check_partial_run(philosophers4, again, initial_state=ring4).valid


def test_sigma_keys_and_linearized_segments_must_be_down_sets(philosophers4, ring4):
    pr = parse_certificate(chain_certificate(3), philosophers4)
    pr.states = {frozenset(): ring4, frozenset({"m1", "m3"}): ring4}
    verdict = check_partial_run(philosophers4, pr, initial_state=ring4)
    assert (verdict.condition, verdict.message) == (
        "certificate", "sigma key {m1, m3} is not an initial segment"
    )
    with pytest.raises(CertificateError, match="not an initial segment"):
        linearizations(philosophers4, pr, {"m1", "m3"})
