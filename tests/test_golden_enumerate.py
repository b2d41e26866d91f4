"""Golden ``enumerate`` reports, compared byte for byte.

All cases run through the CLI in a fresh interpreter, once under each of
two hash seeds, so a report that depends on set or dict iteration order
fails here.  The golden files were written by the canonical form that
tried every permutation of the reserve elements; regenerate them with
``PYTHONPATH=src python tests/test_golden_enumerate.py`` only when a
report is meant to change.
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
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "philosophers_ring3": [
        "philosophers.ea", "--state", "ring3.east", "--depth", "6",
        "--assert", "not (exists i in P) (Mode(i) = eat and Mode(i + 1) = eat)",
    ],
    "phil_steps_violation": [
        "phil_steps.ea", "--state", "ring3.east", "--depth", "4",
        "--assert", "not (forall i in P) Mode(i) = hasleft",
    ],
    "phil_steps_budget": [
        "phil_steps.ea", "--state", "ring3.east", "--depth", "8", "--budget", "4",
    ],
    "choosedemo": ["choosedemo.ea", "--state", "choosedemo.east", "--depth", "3"],
    "grow": ["grow.ea", "--state", "grow.east", "--depth", "4"],
    "tree_tree3": ["tree.ea", "--state", "tree3.east", "--depth", "10"],
    "extendnodes": ["extendnodes.ea", "--state", "extendnodes.east", "--depth", "3"],
    "dupdemo": ["dupdemo.ea", "--state", "dupdemo.east", "--depth", "3"],
    "growtree": ["growtree.ea", "--state", "growtree.east", "--depth", "6"],
    "growtree_violation": [
        "growtree.ea", "--state", "growtree.east", "--depth", "3",
        "--assert", "not (exists x in Node) (Parent(Parent(x)) != undef)",
    ],
    "parallelgrow": ["parallelgrow.ea", "--state", "parallelgrow4.east", "--depth", "2"],
}


def render_all() -> dict[str, str]:
    """Exit code and stdout of every case's ``enumerate`` run, in this process."""
    from ealgebra.cli import main

    out = {}
    for case, argv in sorted(CASES.items()):
        argv = list(argv)
        argv[0] = str(ROOT / "programs" / argv[0])
        argv[2] = str(ROOT / "programs" / argv[2])
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["enumerate", *argv])
        out[case] = f"exit {code}\n{buffer.getvalue()}"
    return out


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_enumerate_reports_match_golden(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, __file__, "--json"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    rendered = json.loads(done.stdout)
    for case in sorted(CASES):
        expected = (GOLDEN / f"enumerate_{case}.txt").read_text(encoding="utf-8")
        assert rendered[case] == expected, case


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        json.dump(render_all(), sys.stdout)
    else:
        GOLDEN.mkdir(exist_ok=True)
        for name, text in render_all().items():
            (GOLDEN / f"enumerate_{name}.txt").write_text(text, encoding="utf-8")
