"""Golden CLI output, compared byte for byte.

Each case names its subcommand: ``enumerate_*`` cases are reachability
reports, ``run_*`` cases are traces of ``run`` at a fixed seed, in text and
records format.  All cases run through the CLI in a fresh interpreter,
once under each of two hash seeds, so output that depends on set or dict
iteration order fails here.  The golden ``enumerate`` files were written
by the canonical form that tried every permutation of the reserve
elements; the ``run`` files by the engine before its sequential steps and
agent moves shared one move function (only the ``pick`` traces differ
from that engine, which dropped the family size and choice index of
distributed choose moves).  ``enumerate_echo`` was written once
enumeration read external functions as undef.  Regenerate them with
``PYTHONPATH=src python tests/test_golden_enumerate.py`` only when an
output is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "enumerate_philosophers_ring3": [
        "enumerate", "philosophers.ea", "--state", "ring3.east", "--depth", "6",
        "--assert", "not (exists i in P) (Mode(i) = eat and Mode(i + 1) = eat)",
    ],
    "enumerate_phil_steps_violation": [
        "enumerate", "phil_steps.ea", "--state", "ring3.east", "--depth", "4",
        "--assert", "not (forall i in P) Mode(i) = hasleft",
    ],
    "enumerate_phil_steps_budget": [
        "enumerate", "phil_steps.ea", "--state", "ring3.east", "--depth", "8",
        "--budget", "4",
    ],
    "enumerate_choosedemo": [
        "enumerate", "choosedemo.ea", "--state", "choosedemo.east", "--depth", "3",
    ],
    "enumerate_grow": ["enumerate", "grow.ea", "--state", "grow.east", "--depth", "4"],
    "enumerate_tree_tree3": [
        "enumerate", "tree.ea", "--state", "tree3.east", "--depth", "10",
    ],
    "enumerate_extendnodes": [
        "enumerate", "extendnodes.ea", "--state", "extendnodes.east", "--depth", "3",
    ],
    "enumerate_dupdemo": [
        "enumerate", "dupdemo.ea", "--state", "dupdemo.east", "--depth", "3",
    ],
    "enumerate_growtree": [
        "enumerate", "growtree.ea", "--state", "growtree.east", "--depth", "6",
    ],
    "enumerate_growtree_violation": [
        "enumerate", "growtree.ea", "--state", "growtree.east", "--depth", "3",
        "--assert", "not (exists x in Node) (Parent(Parent(x)) != undef)",
    ],
    "enumerate_echo": [
        "enumerate", "echo.ea", "--state", "echo.east", "--depth", "2",
    ],
    "enumerate_parallelgrow": [
        "enumerate", "parallelgrow.ea", "--state", "parallelgrow4.east", "--depth", "2",
    ],
}

# Every program with the state the tests pair it with, and extra flags.
RUN_PAIRS = {
    "bad_reserve": ("bad_reserve.ea", "empty.east"),
    "choosedemo": ("choosedemo.ea", "choosedemo.east"),
    "dupdemo": ("dupdemo.ea", "dupdemo.east"),
    "echo": ("echo.ea", "echo.east", "--oracle", "echo.oracle"),
    "extendnodes": ("extendnodes.ea", "extendnodes.east"),
    "grow": ("grow.ea", "grow.east"),
    "growtree": ("growtree.ea", "growtree.east"),
    "parallelgrow": ("parallelgrow.ea", "parallelgrow4.east"),
    "phil_steps": ("phil_steps.ea", "ring3.east"),
    "philosophers": ("philosophers.ea", "ring3.east"),
    "philosophers4": ("philosophers4.ea", "ring4.east"),
    "sendrecv": ("sendrecv.ea", "sendrecv.east"),
    "sendrecv_schedule": ("sendrecv.ea", "sendrecv.east", "--schedule", "s,r,t1,s"),
    "skip": ("skip.ea", "empty.east"),
    "tree": ("tree.ea", "tree3.east"),
    "tree_loop": ("tree.ea", "tree3_loop.east"),
    "pick": ("pick.ea", "pick.east"),
    "pick_empty": ("pick.ea", "pick_empty.east"),
}
CASES.update(
    {
        f"run_{name}_{fmt}": [
            "run", program, "--state", state, *extra,
            "--seed", "3", "--steps", "12", "--format", fmt,
        ]
        for name, (program, state, *extra) in RUN_PAIRS.items()
        for fmt in ("text", "records")
    }
)


def render_all() -> dict[str, str]:
    """Exit code, stdout and stderr of every case, run in this process."""
    from ealgebra.cli import main

    out = {}
    for case, argv in sorted(CASES.items()):
        argv = [
            str(PROGRAMS / a) if a.endswith((".ea", ".east", ".oracle")) else a
            for a in argv
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        text = f"exit {code}\n{stdout.getvalue()}"
        if stderr.getvalue():
            text += f"stderr:\n{stderr.getvalue()}"
        out[case] = text
    return out


@pytest.fixture(scope="module", params=["0", "1"])
def rendered(request):
    env = dict(os.environ, PYTHONHASHSEED=request.param)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, __file__, "--json"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(done.stdout)


def _check(rendered, subcommand):
    cases = sorted(c for c in CASES if c.startswith(f"{subcommand}_"))
    assert cases
    for case in cases:
        expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
        assert rendered[case] == expected, case


def test_enumerate_reports_match_golden(rendered):
    _check(rendered, "enumerate")


def test_run_traces_match_golden(rendered):
    _check(rendered, "run")


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        json.dump(render_all(), sys.stdout)
    else:
        GOLDEN.mkdir(exist_ok=True)
        for name, text in render_all().items():
            (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
