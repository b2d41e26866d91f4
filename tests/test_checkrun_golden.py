"""Golden ``check-run`` verdicts, compared byte for byte.

``render`` writes the certificate that ``generate_partial_run`` makes for
each sample run, with sigma stored on every initial segment, and four
tampered copies of it, and prints the JSON
verdict and exit code that ``check-run`` gives each one.  Every case runs
through the CLI in a fresh interpreter, once under each of two hash seeds,
so a verdict that depends on set or dict iteration order fails here.
Regenerate ``tests/golden/checkrun.txt`` with
``PYTHONPATH=src python tests/test_checkrun_golden.py`` only when a verdict
is meant to change.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
GOLDEN = Path(__file__).resolve().parent / "golden" / "checkrun.txt"

# (spec, initial state, schedule of agent literals)
RUNS = [
    ("philosophers.ea", "ring3.east", ["0", "1", "2", "0", "2"]),
    ("philosophers4.ea", "ring4.east", ["0", "2", "1", "3", "0"]),
    ("sendrecv.ea", "sendrecv.east", ["s", "r", "t1"]),
    ("phil_steps.ea", "ring3.east", ["0", "1", "0", "2", "1"]),
]


def _drop_edge(pr):
    return dataclasses.replace(pr, edges=pr.edges - {min(pr.edges)})


def _wrong_sigma(pr):
    states = dict(pr.states)
    states[frozenset({pr.moves[0]})] = pr.states[frozenset()]
    return dataclasses.replace(pr, states=states)


def _wrong_updates(pr):
    first, last = pr.moves[0], pr.moves[-1]
    recorded = dict(pr.recorded, **{first: pr.recorded[last]})
    return dataclasses.replace(pr, recorded=recorded)


def _relabel(pr):
    first = pr.moves[0]
    other = next(a for a in pr.agent_of.values() if a != pr.agent_of[first])
    return dataclasses.replace(pr, agent_of=dict(pr.agent_of, **{first: other}))


TAMPERS = [
    ("generated", lambda pr: pr),
    ("dropped edge", _drop_edge),
    ("wrong sigma", _wrong_sigma),
    ("wrong updates", _wrong_updates),
    ("relabelled agent", _relabel),
]


def render() -> str:
    from ealgebra import Element, format_certificate, generate_partial_run, load_state
    from ealgebra import parse_program_file
    from ealgebra.cli import main
    from segmentoracle import with_every_sigma

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for program, state_file, schedule in RUNS:
            spec = parse_program_file(PROGRAMS / program)
            initial = load_state(
                PROGRAMS / state_file, spec.vocabulary, constants=spec.constants
            )
            agents = [
                Element.integer(int(a)) if a.isdigit() else Element.named(a)
                for a in schedule
            ]
            pr = with_every_sigma(spec, generate_partial_run(spec, initial, agents))
            for name, tamper in TAMPERS:
                cert = Path(tmp) / "run.cert"
                cert.write_text(format_certificate(tamper(pr)), encoding="utf-8")
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(["check-run", str(PROGRAMS / program), str(cert)])
                out.append(f"{program} {state_file} {' '.join(schedule)}: {name}")
                out.append(f"exit {code} {stdout.getvalue().strip()}")
                if stderr.getvalue():
                    out.append(f"stderr {stderr.getvalue().strip()}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("seed", ["0", "1"])
def test_check_run_verdicts_match_golden(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, __file__, "--print"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    assert done.stdout == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        sys.stdout.write(render())
    else:
        GOLDEN.write_text(render(), encoding="utf-8")
