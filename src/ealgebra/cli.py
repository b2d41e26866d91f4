"""Command-line front end.

Subcommands: ``run``, ``enumerate``, ``normalize``, ``check-run``,
``validate``.  Exit codes are a stable contract:

====  ==========================================================
0     success (run completed, property holds, certificate valid)
1     internal error
2     usage error (bad flags, ``--steps``/``--budget`` below 1, ``--depth`` below 0)
3     parse or format error (program, state, oracle, certificate,
      assertion guard, or a program outside the needed fragment),
      or a program nested too deep for the interpreter
4     state-validity or schedule error, or a rule that cannot fire at a
      state it reached (``duplicate`` of an undef term)
5     oracle failure
6     budget exhausted / partial result (``enumerate`` past
      ``--budget`` states, ``check-run`` past the segment budget)
7     property violation or certificate verdict: violation
====  ==========================================================

All randomness flows through ``--seed``; identical invocations produce
byte-identical trace files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import distributed as dist
from . import runner
from .certificate import load_certificate
from .errors import (
    BudgetError,
    CertificateError,
    DeclarationError,
    DuplicateError,
    EalgebraError,
    ModeError,
    OracleError,
    ParseError,
    ScheduleError,
    StateValidityError,
    UpdateTypeError,
    VocabularyError,
)
from .evaluator import normalize_guarded
from .parser import format_program, parse_guard_text, parse_program_file
from .state import Element, format_element
from .stateio import format_state, load_state, parse_element
from .syntax import DistributedSpec

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_STATE = 4
EXIT_ORACLE = 5
EXIT_BUDGET = 6
EXIT_VIOLATION = 7

class _Usage(EalgebraError):
    pass


# The first row whose kinds take an error gives its exit code and the
# prefix of its one stderr line.
_EXITS = (
    (_Usage, EXIT_USAGE, "usage error"),
    ((ParseError, DeclarationError, VocabularyError, CertificateError, ModeError, OSError),
     EXIT_PARSE, "error"),
    ((StateValidityError, UpdateTypeError, ScheduleError, DuplicateError), EXIT_STATE, "error"),
    (OracleError, EXIT_ORACLE, "oracle error"),
    (BudgetError, EXIT_BUDGET, "budget exhausted"),
    (EalgebraError, EXIT_INTERNAL, "internal error"),
)


def _load_initial(path, target):
    state = load_state(path, target.vocabulary, constants=target.constants)
    if isinstance(target, DistributedSpec):
        dist.validate_spec_state(target, state)
    return state


class _InteractiveOracle(runner.Oracle):
    """Asks on stderr and reads each answer from a line of stdin."""

    def __init__(self, vocabulary):
        self.vocabulary = vocabulary

    def resolve(self, fname, args, step_index):
        rendered = ", ".join(format_element(a) for a in args)
        sys.stderr.write(f"step {step_index}: {fname}({rendered}) = ")
        sys.stderr.flush()
        line = sys.stdin.readline()
        if not line:
            raise OracleError(f"no interactive answer for {fname}")
        return parse_element(line.strip(), self.vocabulary)


def _make_oracle(arg, vocabulary):
    if arg is None:
        return runner.UndefOracle()
    if arg == "interactive":
        return _InteractiveOracle(vocabulary)
    return runner.ScriptedOracle.load(arg, vocabulary)


def _parse_schedule(raw, vocabulary) -> list[Element]:
    return [parse_element(tok, vocabulary) for tok in raw.split(",") if tok.strip()]


def _emit_trace(trace, args, header):
    text = runner.render_trace(trace, fmt=args.format, header=header)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"trace written to {args.trace} ({trace.stop_reason}, "
              f"{len(trace.records)} steps)")
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    if args.steps is not None and args.steps < 1:
        raise _Usage("--steps must be at least 1")
    target = parse_program_file(args.program)
    if not args.state:
        raise _Usage("run needs --state")
    initial = _load_initial(args.state, target)
    chooser = runner.SeededChooser(args.seed)
    oracle = _make_oracle(args.oracle, target.vocabulary)
    header = {
        "program": os.path.basename(args.program),
        "state": os.path.basename(args.state),
        "seed": args.seed,
    }
    if isinstance(target, DistributedSpec):
        if args.schedule:
            schedule = _parse_schedule(args.schedule, target.vocabulary)
            if args.steps is not None:
                schedule = schedule[: args.steps]
            header["schedule"] = ",".join(format_element(e) for e in schedule)
            trace = dist.sequential_run(
                target, initial, schedule, chooser=chooser, oracle=oracle
            )
        else:
            steps = args.steps if args.steps is not None else 10
            header["steps"] = steps
            trace = dist.sequential_run(
                target, initial, chooser=chooser, oracle=oracle, max_steps=steps
            )
    else:
        if args.schedule:
            raise _Usage("--schedule only applies to distributed specifications")
        steps = args.steps if args.steps is not None else 100
        header["steps"] = steps
        trace = runner.run(target, initial, oracle, chooser, max_steps=steps)
    _emit_trace(trace, args, header)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.depth < 0:
        raise _Usage("--depth must not be negative")
    if args.budget < 1:
        raise _Usage("--budget must be at least 1")
    target = parse_program_file(args.program)
    if not args.state:
        raise _Usage("enumerate needs --state")
    initial = _load_initial(args.state, target)
    predicate = None
    if args.assertion:
        predicate = parse_guard_text(args.assertion, target.vocabulary)
    report = runner.enumerate_reachable(
        target, initial, args.depth, budget=args.budget, predicate=predicate
    )
    by_depth: dict[int, int] = {}
    for _, level in report.states:
        by_depth[level] = by_depth.get(level, 0) + 1
    programs = (
        target.modules.values() if isinstance(target, DistributedSpec) else [target]
    )
    externals = sorted(frozenset().union(*(p.externals for p in programs)))
    if externals:
        # No oracle is given, so these states cover only the undef answers.
        print(f"external functions read as undef: {', '.join(externals)}")
    print(f"reachable states: {len(report.states)} (depth {args.depth}, "
          f"budget {'exceeded' if report.partial else 'ok'})")
    for level in sorted(by_depth):
        print(f"  depth {level}: {by_depth[level]}")
    for witness in report.violations:
        print("violation:")
        for move in witness.moves:
            print(f"  via {move}")
        for line in format_state(witness.state).rstrip().splitlines():
            print(f"  | {line}")
    if report.violations:
        return EXIT_VIOLATION
    if report.partial:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_normalize(args) -> int:
    target = parse_program_file(args.program)
    if isinstance(target, DistributedSpec):
        raise ModeError("normalize applies to single-agent programs")
    normalized = normalize_guarded(target.core_rule)
    out = format_program(target._replace(rule=normalized, active_sugar=False))
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def _cmd_check_run(args) -> int:
    target = parse_program_file(args.program)
    if not isinstance(target, DistributedSpec):
        raise ParseError("check-run needs a distributed specification")
    pr = load_certificate(args.certificate, target)
    initial = _load_initial(args.state, target) if args.state else None
    verdict = dist.check_partial_run(target, pr, initial_state=initial)
    witness = verdict.witness  # a move id, or a pair or segment of them
    if witness is not None and not isinstance(witness, str):
        witness = sorted(witness)
    payload = {
        "valid": verdict.valid,
        "condition": verdict.condition,
        "message": verdict.message,
        "witness": witness,
    }
    print(json.dumps(payload, sort_keys=True))
    if verdict.valid:
        return EXIT_OK
    if verdict.condition == "certificate":
        return EXIT_PARSE
    return EXIT_VIOLATION


def _cmd_validate(args) -> int:
    target = parse_program_file(args.program)
    is_spec = isinstance(target, DistributedSpec)
    for program in target.modules.values() if is_spec else (target,):
        program.prepared  # as run prepares it: too deep a nesting fails here
    kind = "distributed spec" if is_spec else "program"
    if args.state:
        _load_initial(args.state, target)
        print(f"ok: {kind} and state validate")
    else:
        print(f"ok: {kind} validates")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ealgebra",
        description="Run and verify evolving-algebra (abstract state machine) programs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("program", help="program or distributed spec file")
        p.add_argument("--state", help="initial-state file")

    p = sub.add_parser("run", help="execute a program or a distributed schedule")
    common(p)
    p.add_argument("--oracle", help="oracle script path, or 'interactive'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--schedule", help="comma-separated agent elements")
    p.add_argument("--trace", help="trace output path (default: stdout)")
    p.add_argument("--format", choices=("text", "records"), default="text")

    p = sub.add_parser("enumerate", help="bounded exhaustive reachability")
    common(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--assert", dest="assertion", help="closed guard to hold everywhere")

    p = sub.add_parser("normalize", help="guarded-update normal form of a basic program")
    p.add_argument("program")
    p.add_argument("-o", "--output")

    p = sub.add_parser("check-run", help="verify a partially-ordered-run certificate")
    p.add_argument("program", help="distributed spec file")
    p.add_argument("certificate")
    p.add_argument("--state", help="declared initial state to compare against")

    p = sub.add_parser("validate", help="parse and validate inputs")
    common(p)
    return top


_HANDLERS = {
    "run": _cmd_run,
    "enumerate": _cmd_enumerate,
    "normalize": _cmd_normalize,
    "check-run": _cmd_check_run,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except RecursionError:
        print("error: program nested too deep for the interpreter", file=sys.stderr)
        return EXIT_PARSE
    except (EalgebraError, OSError) as exc:
        for kinds, code, prefix in _EXITS:  # the last row takes every other error
            if isinstance(exc, kinds):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())
