import io
import json

import pytest

from ealgebra.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PARSE,
    EXIT_STATE,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)

from conftest import PROGRAMS
from segmentoracle import with_every_sigma


def program(name):
    return str(PROGRAMS / name)


def run_cli(*argv):
    return main(list(argv))


def test_run_tree_reaches_a_fixpoint(capsys, tmp_path):
    trace = tmp_path / "tree.trace"
    code = run_cli(
        "run", program("tree.ea"), "--state", program("tree3.east"),
        "--steps", "10", "--trace", str(trace),
    )
    assert code == EXIT_OK
    assert "stop fixpoint" in trace.read_text()


def test_run_philosophers_schedule_matches_hand_computed(capsys):
    code = run_cli(
        "run", program("philosophers.ea"), "--state", program("ring3.east"),
        "--schedule", "0,0",
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "Fork(0) := up" in out and "Mode(0) := eat" in out
    assert "Fork(0) := down" in out and "Mode(0) := think" in out


def test_run_rejects_reserve_mention():
    code = run_cli(
        "run", program("bad_reserve.ea"), "--state", program("empty.east")
    )
    assert code == EXIT_PARSE


def test_a_state_line_reduced_onto_another_is_named_as_written(capsys):
    # philosophers.ea is mod 3 and ring4.east seats four: line 5,
    # Mod(3) = Phil, reads as a second line for Mod(0).
    code = run_cli(
        "enumerate", program("philosophers.ea"), "--state", program("ring4.east"),
        "--depth", "2",
    )
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: line 5, column 1: second line for Mod(0) "
        "(written Mod(3) = Phil, integers mod 3)\n"
    )


def test_run_rejects_bad_initial_state(tmp_path):
    bad = tmp_path / "bad.east"
    bad.write_text("Parent(@0) = root\nreserve: 0\n")
    code = run_cli("run", program("grow.ea"), "--state", str(bad))
    assert code == EXIT_STATE


def test_replay_is_byte_identical(tmp_path):
    args = [
        "run", program("philosophers.ea"), "--state", program("ring3.east"),
        "--seed", "7", "--steps", "6", "--format", "records",
    ]
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    assert run_cli(*args, "--trace", str(a)) == EXIT_OK
    assert run_cli(*args, "--trace", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_oracle_script_round(capsys, tmp_path):
    trace = tmp_path / "echo.trace"
    code = run_cli(
        "run", program("echo.ea"), "--state", program("echo.east"),
        "--oracle", program("echo.oracle"), "--steps", "3", "--trace", str(trace),
    )
    assert code == EXIT_OK
    text = trace.read_text()
    assert "oracle input(0) = hello" in text
    assert "oracle input(1) = world" in text


def test_an_oracle_answer_still_in_the_reserve_exits_5(capsys, tmp_path):
    oracle = tmp_path / "reserve.oracle"
    oracle.write_text("step 1: input(0) = @7\n", encoding="utf-8")
    code = run_cli(
        "run", program("echo.ea"), "--state", program("echo.east"), "--oracle", str(oracle),
    )
    assert code == EXIT_ORACLE
    assert "input: oracle returned @7, still in the reserve" in capsys.readouterr().err


def test_interactive_oracle_asks_on_stderr_and_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("hello\nworld\n"))
    code = run_cli(
        "run", program("echo.ea"), "--state", program("echo.east"),
        "--oracle", "interactive", "--steps", "3",
    )
    assert code == EXIT_ORACLE  # the third question finds no answer
    err = capsys.readouterr().err
    assert err.startswith("step 1: input(0) = step 2: input(1) = step 3: input(2) = ")
    assert "no interactive answer for input" in err


def test_enumerate_safety_holds(capsys):
    code = run_cli(
        "enumerate", program("philosophers.ea"), "--state", program("ring3.east"),
        "--depth", "6",
        "--assert", "not (exists i in P) (Mode(i) = eat and Mode(i + 1) = eat)",
    )
    assert code == EXIT_OK


def test_enumerate_deadlock_probe_reports_violation(capsys):
    code = run_cli(
        "enumerate", program("phil_steps.ea"), "--state", program("ring3.east"),
        "--depth", "4",
        "--assert", "not (forall i in P) Mode(i) = hasleft",
    )
    assert code == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "violation" in out


def test_enumerate_refuses_an_open_assertion(capsys):
    code = run_cli(
        "enumerate", program("philosophers.ea"), "--state", program("ring3.east"),
        "--depth", "1", "--assert", "Mode(x) = eat",
    )
    assert code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1, column 6: unknown identifier: x\n"


def test_enumerate_budget_exit(capsys):
    code = run_cli(
        "enumerate", program("phil_steps.ea"), "--state", program("ring3.east"),
        "--depth", "8", "--budget", "4",
    )
    assert code == EXIT_BUDGET


def test_enumerate_choose_demo(capsys):
    code = run_cli(
        "enumerate", program("choosedemo.ea"), "--state", program("choosedemo.east"),
        "--depth", "1",
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "depth 1: 2" in out


def test_enumerate_grow_past_eight_reserve_elements(capsys):
    # Each step imports two elements: depth 10 holds twenty.
    code = run_cli(
        "enumerate", program("grow.ea"), "--state", program("grow.east"),
        "--depth", "10",
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "reachable states: 11 (depth 10, budget ok)" in out
    assert "depth 10: 1" in out


def test_enumerate_reads_external_functions_as_undef(capsys):
    code = run_cli(
        "enumerate", program("echo.ea"), "--state", program("echo.east"), "--depth", "2",
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith(
        "external functions read as undef: input\nreachable states: 1 (depth 2, budget ok)"
    )


def test_normalize_round_trip(capsys, tmp_path):
    out_path = tmp_path / "tree_normal.ea"
    code = run_cli("normalize", program("tree.ea"), "-o", str(out_path))
    assert code == EXIT_OK

    from ealgebra import enumerate_reachable  # noqa: F401  (import check only)
    from ealgebra import parse_program_file, updates, prepare_rule
    import random
    from ealgebra import Element, State

    original = parse_program_file(program("tree.ea"))
    normalized = parse_program_file(out_path)
    rng = random.Random(11)
    nodes = [Element.named(f"n{i}") for i in range(4)]
    pool = nodes + [Element("logic", "undef")]
    for _ in range(50):
        tables = {"c": {(): rng.choice(nodes)}}
        for fname in ("FirstChild", "NextSib", "Parent"):
            entries = {}
            for n in nodes:
                value = rng.choice(pool)
                if value.kind != "logic":
                    entries[(n,)] = value
            if entries:
                tables[fname] = entries
        state = State(original.vocabulary, tables)
        assert updates(prepare_rule(original), state) == updates(
            prepare_rule(normalized), state
        )


def test_normalize_rejects_binder_programs():
    assert run_cli("normalize", program("grow.ea")) == EXIT_PARSE


@pytest.mark.parametrize("state", ["pick.east", "pick_empty.east"])
def test_distributed_choose_run_replays_from_records(capsys, state):
    from ealgebra import (
        FixedChooser,
        SeededChooser,
        load_state,
        parse_program_file,
        replay_record,
        sequential_run,
    )
    from ealgebra.runner import record_from_json, record_to_json

    code = run_cli(
        "run", program("pick.ea"), "--state", program(state),
        "--seed", "3", "--steps", "12", "--format", "records",
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()[1:-1]
    records = [record_from_json(line) for line in lines]
    spec = parse_program_file(program("pick.ea"))
    initial = load_state(program(state), spec.vocabulary, constants=spec.constants)
    expected = sequential_run(spec, initial, chooser=SeededChooser(3), max_steps=12)
    assert [r.agent for r in records] == [r.agent for r in expected.records]
    assert [(r.family_size, r.choice_index) for r in records] == [
        (r.family_size, r.choice_index) for r in expected.records
    ]
    assert any(r.family_size == 3 for r in records)

    schedule = [r.agent for r in records]
    choices = [r.choice_index for r in records if r.family_size and r.family_size > 1]
    replayed = sequential_run(spec, initial, schedule, chooser=FixedChooser(choices))
    assert [record_to_json(r) for r in replayed.records] == lines
    final = initial
    for record in records:
        final = replay_record(final, record)
    assert final == replayed.final_state == expected.final_state


def test_check_run_valid_and_mutated(capsys, tmp_path):
    from ealgebra import (
        Element,
        format_certificate,
        generate_partial_run,
        load_state,
        parse_program_file,
    )

    spec = parse_program_file(program("philosophers4.ea"))
    initial = load_state(
        program("ring4.east"), spec.vocabulary, constants=spec.constants
    )
    I = Element.integer
    pr = with_every_sigma(spec, generate_partial_run(spec, initial, [I(0), I(2)]))
    good = tmp_path / "good.cert"
    good.write_text(format_certificate(pr))
    code = run_cli(
        "check-run", program("philosophers4.ea"), str(good),
        "--state", program("ring4.east"),
    )
    assert code == EXIT_OK
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert verdict["valid"] is True
    assert verdict["witness"] is None

    bad = tmp_path / "bad.cert"
    bad.write_text(format_certificate(pr).replace("Mode(0) = eat", "Mode(0) = think"))
    code = run_cli(
        "check-run", program("philosophers4.ea"), str(bad),
        "--state", program("ring4.east"),
    )
    assert code == EXIT_VIOLATION
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert verdict["condition"] == "4"
    assert verdict["witness"] == ["m1"]  # the segment whose sigma was mutated


def _chains(*chains) -> list[str]:
    """``move``/``order`` lines of one move chain per (prefix, length, agent)."""
    lines = []
    for prefix, length, agent in chains:
        lines += [f"move {prefix}{i} by {agent}" for i in range(1, length + 1)]
        lines += [f"order {prefix}{i} < {prefix}{i + 1}" for i in range(1, length)]
    return lines


def test_check_run_two_chains_of_fifteen_moves(capsys, tmp_path):
    # Philosophers 0 and 2 share no fork: 8 * 9 = 72 initial segments.
    cert = tmp_path / "two_chains.cert"
    cert.write_text("\n".join(_chains(("a", 8, 0), ("b", 7, 2))) + "\n")
    code = run_cli(
        "check-run", program("philosophers4.ea"), str(cert), "--state", program("ring4.east"),
    )
    assert code == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict == {
        "condition": None, "message": "all run conditions hold", "valid": True,
        "witness": None,
    }


def test_check_run_long_reverse_listed_chain(capsys, tmp_path):
    lines = _chains(("m", 1200, 0))
    cert = tmp_path / "chain.cert"
    cert.write_text("\n".join(lines[1199::-1] + lines[1200:]) + "\n")
    code = run_cli(
        "check-run", program("philosophers4.ea"), str(cert), "--state", program("ring4.east"),
    )
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_check_run_antichain_past_the_segment_budget(capsys, tmp_path):
    # Seventeen agents and no order: 2^17 initial segments holding
    # 17 * 2^16 moves, over the 2^20 budget.
    spec = tmp_path / "ring18.ea"
    spec.write_text(
        (PROGRAMS / "philosophers4.ea").read_text().replace("mod 4", "mod 18")
    )
    state = tmp_path / "ring18.east"
    state.write_text("".join(
        f"Mod({i}) = Phil\nMode({i}) = think\nFork({i}) = down\nP({i}) = true\n"
        for i in range(18)
    ))
    cert = tmp_path / "antichain.cert"
    cert.write_text("".join(f"move m{i} by {i}\n" for i in range(17)))
    code = run_cli("check-run", str(spec), str(cert), "--state", str(state))
    assert code == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hold more than 1048576 moves in all" in captured.err


def test_check_run_chain_past_the_segment_budget(capsys, tmp_path):
    # 1,500 moves in a chain: 1,501 segments holding 1,500 * 1,501 / 2 moves.
    cert = tmp_path / "chain.cert"
    cert.write_text("\n".join(_chains(("m", 1500, 0))) + "\n")
    code = run_cli(
        "check-run", program("philosophers4.ea"), str(cert), "--state", program("ring4.east"),
    )
    assert code == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hold more than 1048576 moves in all" in captured.err


def test_check_run_refuses_updates_for_an_undeclared_move(capsys, tmp_path):
    from ealgebra import Element, format_certificate, generate_partial_run, load_state
    from ealgebra import parse_program_file

    spec = parse_program_file(program("sendrecv.ea"))
    initial = load_state(program("sendrecv.east"), spec.vocabulary, constants=spec.constants)
    N = Element.named
    pr = generate_partial_run(spec, initial, [N("s"), N("r"), N("t1")])
    cert = tmp_path / "extra.cert"
    cert.write_text(format_certificate(pr) + "updates m9: Mode(s) := idle\n")
    code = run_cli("check-run", program("sendrecv.ea"), str(cert))
    assert code == EXIT_PARSE
    assert json.loads(capsys.readouterr().out) == {
        "condition": "certificate", "message": "updates line names unknown move m9",
        "valid": False, "witness": None,
    }


def test_check_run_malformed_certificate(tmp_path):
    bad = tmp_path / "broken.cert"
    bad.write_text("this is not a certificate\n")
    code = run_cli("check-run", program("philosophers4.ea"), str(bad))
    assert code == EXIT_PARSE


def test_check_run_refuses_a_second_updates_line_for_a_move(capsys, tmp_path):
    from ealgebra import Element, format_certificate, generate_partial_run, load_state
    from ealgebra import parse_program_file

    spec = parse_program_file(program("sendrecv.ea"))
    initial = load_state(program("sendrecv.east"), spec.vocabulary, constants=spec.constants)
    N = Element.named
    text = format_certificate(generate_partial_run(spec, initial, [N("s"), N("r"), N("t1")]))
    true_line = "updates m1: Mode(s) := ready\n"
    cert = tmp_path / "doubled.cert"
    cert.write_text(text.replace(true_line, "updates m1: Mode(s) := idle\n" + true_line))
    assert run_cli("check-run", program("sendrecv.ea"), str(cert)) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: second updates line for move m1\n"


def test_a_sigma_block_error_names_the_certificate_line(capsys, tmp_path):
    cert = tmp_path / "bogus.cert"
    cert.write_text(
        "move m1 by 0\n\n# the empty segment\nsigma:\n  Mod(0) = Phil\n\n"
        "  # a comment\n  Bogus(1) = up\nendsigma\n"
    )
    assert run_cli("check-run", program("philosophers.ea"), str(cert)) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sigma block: line 8, column 1: unknown function name: Bogus\n"


LEAVER = """\
vocabulary:
  dynamic Done/1
constants a, yes
module Leave:
  Mod(Self) := undef, Done(Self) := yes
"""


@pytest.mark.parametrize("text,verdict,code", [
    # a leaves at m1, so it is no agent when m2 would move
    (
        "move m1 by a\nmove m2 by a\norder m1 < m2\nsigma:\n  Mod(a) = Leave\nendsigma\n",
        {"condition": "4", "message": "a is not an agent before m2", "witness": "m2"},
        EXIT_VIOLATION,
    ),
    # no sigma of the empty segment, and no --state to stand for it
    (
        "move m1 by a\n",
        {"condition": "certificate", "message": "sigma of the empty segment is missing",
         "witness": None},
        EXIT_PARSE,
    ),
])
def test_check_run_refutes_in_the_library_and_on_the_command_line(
    capsys, tmp_path, text, verdict, code,
):
    from ealgebra import check_partial_run, parse_certificate, parse_program

    spec = parse_program(LEAVER)
    found = check_partial_run(spec, parse_certificate(text, spec))
    assert (found.valid, found.condition, found.message, found.witness) == (
        False, verdict["condition"], verdict["message"], verdict["witness"],
    )
    (tmp_path / "leave.ea").write_text(LEAVER)
    (tmp_path / "leave.cert").write_text(text)
    assert run_cli("check-run", str(tmp_path / "leave.ea"), str(tmp_path / "leave.cert")) == code
    assert json.loads(capsys.readouterr().out) == {"valid": False, **verdict}


def test_validate_program_and_state():
    assert run_cli("validate", program("philosophers.ea"), "--state", program("ring3.east")) == EXIT_OK
    assert run_cli("validate", program("tree.ea")) == EXIT_OK
    assert run_cli("validate", program("bad_reserve.ea")) == EXIT_PARSE


@pytest.mark.parametrize("argv", [
    ("run", "choosedemo.ea", "--state", "choosedemo.east", "--steps", "0"),
    ("run", "choosedemo.ea", "--state", "choosedemo.east", "--steps", "-1"),
    ("run", "sendrecv.ea", "--state", "sendrecv.east", "--schedule", "s,r,t1", "--steps", "-1"),
    ("enumerate", "philosophers.ea", "--state", "ring3.east", "--depth", "-3"),
])
def test_out_of_range_steps_and_depth_are_usage_errors(capsys, argv):
    command, prog, flag, state, *rest = argv
    assert run_cli(command, program(prog), flag, program(state), *rest) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --")


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_out_of_range_budget_is_a_usage_error(capsys, budget):
    code = run_cli(
        "enumerate", program("philosophers.ea"), "--state", program("ring3.east"),
        "--depth", "2", "--budget", budget,
    )
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --budget must be at least 1\n"


def test_library_enumerate_refuses_out_of_range_budget_and_depth():
    from ealgebra import ScheduleError, enumerate_reachable, load_state, parse_program_file

    prog = parse_program_file(program("philosophers.ea"))
    initial = load_state(program("ring3.east"), prog.vocabulary, constants=prog.constants)
    for depth, budget in ((2, 0), (2, -5), (-1, 20000)):
        with pytest.raises(ScheduleError, match="budget must be positive and depth not negative"):
            enumerate_reachable(prog, initial, depth, budget=budget)
    report = enumerate_reachable(prog, initial, 0, budget=1)
    assert len(report.states) == 1 and not report.partial


def test_library_runs_refuse_out_of_range_step_counts():
    from ealgebra import Element, ScheduleError, load_state, parse_program_file, run
    from ealgebra import sequential_run

    prog = parse_program_file(program("choosedemo.ea"))
    initial = load_state(program("choosedemo.east"), prog.vocabulary, constants=prog.constants)
    for steps in (0, -1):
        with pytest.raises(ScheduleError, match="max_steps must be positive"):
            run(prog, initial, max_steps=steps)
    spec = parse_program_file(program("sendrecv.ea"))
    initial = load_state(program("sendrecv.east"), spec.vocabulary, constants=spec.constants)
    schedule = [Element.named(a) for a in ("s", "r", "t1")]
    for agents in (schedule, None):
        with pytest.raises(ScheduleError, match="max_steps must not be negative"):
            sequential_run(spec, initial, agents, max_steps=-1)
    assert len(sequential_run(spec, initial, schedule, max_steps=0).records) == 0


@pytest.mark.parametrize("digits", ["²", "٣"])
def test_non_ascii_digits_are_parse_errors(capsys, tmp_path, digits):
    state = tmp_path / "echo.east"
    state.write_text(f"count = {digits}\n", encoding="utf-8")
    assert run_cli("run", program("echo.ea"), "--state", str(state)) == EXIT_PARSE
    assert f"bad element literal: {digits}" in capsys.readouterr().err

    oracle = tmp_path / "echo.oracle"
    oracle.write_text(f"step 1: input(0) = {digits}\n", encoding="utf-8")
    argv = ["run", program("echo.ea"), "--state", program("echo.east"), "--oracle", str(oracle)]
    assert run_cli(*argv) == EXIT_PARSE
    oracle.write_text(f"step {digits}: input(0) = 1\n", encoding="utf-8")
    assert run_cli(*argv) == EXIT_ORACLE

    cert = tmp_path / "bad.cert"
    cert.write_text(f"move m1 by {digits}\n", encoding="utf-8")
    assert run_cli("check-run", program("philosophers.ea"), str(cert)) == EXIT_PARSE

    modded = tmp_path / "modded.ea"
    modded.write_text(
        f"vocabulary:\n  dynamic c/0\npragma integers mod {digits}\nprogram:\n  c := c + 1\n",
        encoding="utf-8",
    )
    assert run_cli("validate", str(modded)) == EXIT_PARSE
    assert "usage: pragma integers [mod N]" in capsys.readouterr().err


def _nested(tmp_path, rule: str):
    path = tmp_path / "deep.ea"
    path.write_text(
        f"vocabulary:\n  dynamic f/1\n  dynamic relation Q/0\nconstants a\nprogram:\n{rule}"
    )
    return str(path)


def test_nesting_too_deep_to_parse_is_a_parse_error(capsys, tmp_path):
    deep = _nested(tmp_path, "  f(a) := " + "(" * 2000 + "a" + ")" * 2000 + "\n")
    assert run_cli("validate", deep) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: line 6, column ") and err.endswith(": nesting too deep\n")


def test_nesting_too_deep_to_run_exits_with_one_line(capsys, tmp_path):
    deep = _nested(tmp_path, "  if " + "not " * 500 + "Q then f(a) := a endif\n")
    assert run_cli("validate", deep) == EXIT_PARSE
    assert capsys.readouterr().err == "error: program nested too deep for the interpreter\n"
    assert run_cli("run", deep, "--state", program("empty.east")) == EXIT_PARSE
    assert capsys.readouterr().err == "error: program nested too deep for the interpreter\n"
