"""Golden ``check-run`` verdicts, compared byte for byte.

``render`` writes the certificate that ``generate_partial_run`` makes for
each sample run, with sigma stored on every initial segment, and four
tampered copies of it, then certificates of fixed shapes over rings of
philosophers (``SHAPES``), and prints the JSON verdict and exit code that
``check-run`` gives each one.  Every case runs
through the CLI in a fresh interpreter, once under each of two hash seeds,
so a verdict that depends on set or dict iteration order fails here.
Regenerate ``tests/golden/checkrun.txt`` with
``PYTHONPATH=src python tests/test_checkrun_golden.py`` only when a verdict
is meant to change.
"""

from __future__ import annotations

import contextlib
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
    return pr._replace(edges=pr.edges - {min(pr.edges)})


def _wrong_sigma(pr):
    states = dict(pr.states)
    states[frozenset({pr.moves[0]})] = pr.states[frozenset()]
    return pr._replace(states=states)


def _wrong_updates(pr):
    first, last = pr.moves[0], pr.moves[-1]
    recorded = dict(pr.recorded, **{first: pr.recorded[last]})
    return pr._replace(recorded=recorded)


def _relabel(pr):
    first = pr.moves[0]
    other = next(a for a in pr.agent_of.values() if a != pr.agent_of[first])
    return pr._replace(agent_of=dict(pr.agent_of, **{first: other}))


TAMPERS = [
    ("generated", lambda pr: pr),
    ("dropped edge", _drop_edge),
    ("wrong sigma", _wrong_sigma),
    ("wrong updates", _wrong_updates),
    ("relabelled agent", _relabel),
]


def ring_program(n: int) -> str:
    return (PROGRAMS / "philosophers4.ea").read_text(encoding="utf-8").replace(
        "mod 4", f"mod {n}"
    )


def ring_facts(n: int) -> str:
    return "".join(
        f"Mod({i}) = Phil\nMode({i}) = think\nFork({i}) = down\nP({i}) = true\n"
        for i in range(n)
    )


def _moves(chains) -> tuple[dict, set]:
    """Agents and edges of chains given as (prefix, length, seat)."""
    agent_of, edges = {}, set()
    for prefix, length, seat in chains:
        for i in range(1, length + 1):
            agent_of[f"{prefix}{i}"] = seat
            if i > 1:
                edges.add((f"{prefix}{i - 1}", f"{prefix}{i}"))
    return agent_of, edges


def _antichain(seats) -> tuple[dict, set]:
    return {f"m{i}": seat for i, seat in enumerate(seats)}, set()


def _two_chains(total: int, kind: str) -> tuple[dict, set]:
    # The cert_check benchmark's shapes over a ring of eight: chains of
    # non-neighbours, of neighbours sharing a fork, and of one philosopher.
    a = total % 8
    b = (a + {"valid": 2 + total % 5, "adjacent": 1, "same_agent": 0}[kind]) % 8
    return _moves([("a", total // 2, a), ("b", total - total // 2, b)])


# (label, ring size, (seat by move, edges), segment whose sigma is made
# wrong): one move per seat with no order (neighbours fail at the first
# two; non-neighbours commute), two chains up to 16 moves, and one
# philosopher's chain whose stored sigma is wrong after its third move.
SHAPES = (
    [(f"adjacent antichain {k}", k + 1, _antichain(range(k)), None) for k in range(2, 13)]
    + [(f"non-adjacent antichain {k}", 2 * k, _antichain(range(0, 2 * k, 2)), None)
       for k in (2, 5, 8, 17)]
    + [(f"two chains {total} {kind}", 8, _two_chains(total, kind), None)
       for total in range(4, 17) for kind in ("valid", "adjacent", "same_agent")]
    + [("chain 6 wrong sigma at {m1, m2, m3}", 4, _moves([("m", 6, 0)]), "m1 m2 m3")]
)


def _shape_certificate(n: int, moves, tamper) -> str:
    from ealgebra import Element, format_certificate, generate_partial_run
    from ealgebra import parse_program, parse_state
    from ealgebra.distributed import PartialRun
    from segmentoracle import with_every_sigma

    spec = parse_program(ring_program(n))
    state = parse_state(ring_facts(n), spec.vocabulary, constants=spec.constants)
    agent_of, edges = moves
    agents = {m: Element.integer(seat) for m, seat in agent_of.items()}
    if tamper is None:
        pr = PartialRun(tuple(agents), agents, frozenset(edges), {frozenset(): state})
    else:
        # The run as generated, with sigma on every segment, then the base
        # state stored for the named segment.
        pr = with_every_sigma(spec, generate_partial_run(spec, state, list(agents.values())))
        pr = pr._replace(states={**pr.states, frozenset(tamper.split()): state})
    return format_certificate(pr)


def _check_run(program: Path, cert: Path) -> list[str]:
    """The exit code and JSON verdict ``check-run`` gives, and its stderr."""
    from ealgebra.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["check-run", str(program), str(cert)])
    out = [f"exit {code} {stdout.getvalue().strip()}"]
    if stderr.getvalue():
        out.append(f"stderr {stderr.getvalue().strip()}")
    return out


def render() -> str:
    from ealgebra import Element, format_certificate, generate_partial_run, load_state
    from ealgebra import parse_program_file
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
                out.append(f"{program} {state_file} {' '.join(schedule)}: {name}")
                out += _check_run(PROGRAMS / program, cert)
        for label, n, moves, tamper in SHAPES:
            spec, cert = Path(tmp) / f"ring{n}.ea", Path(tmp) / "shape.cert"
            spec.write_text(ring_program(n), encoding="utf-8")
            cert.write_text(_shape_certificate(n, moves, tamper), encoding="utf-8")
            out.append(f"ring of {n}: {label}")
            out += _check_run(spec, cert)
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
