"""Fast checks of the benchmark itself, at tiny sizes.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {"ring_enumerate": 4, "tree_enumerate": 3, "counter_run": 50, "cert_check": 6}
FOUR_MOVES = {"totals": (4,), "past_cap": ()}


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def measure(workload, seed=1, trace=False, **small):
    if workload == "cert_check" and not small:
        small = FOUR_MOVES
    return run.measure(workload, seed, 0.01, trace, size=TINY[workload], **small)


def test_reference_tables():
    assert [reference.lucas(n) for n in (4, 12, 14)] == [7, 322, 843]
    for n in range(3, 17):
        assert sum(reference.ring_states_by_depth(n).values()) == reference.lucas(n)
    assert reference.rooted_trees(8) == [1, 1, 2, 4, 9, 20, 48, 115]
    assert sum(reference.tree_states_by_depth(3).values()) == 8
    assert reference.counter_final_facts(2) == {"c": "2", "F(0)": "0", "F(1)": "1"}


def test_tiny_sizes_match_the_references():
    ring, lines = measure("ring_enumerate")
    assert ring["correct"] and "states by depth 0:1 1:4 2:2 (total 7)" in lines
    tree, lines = measure("tree_enumerate")
    assert tree["correct"] and "states by depth 0:1 1:1 2:2 3:4 (total 8)" in lines
    counter, _ = measure("counter_run")
    assert counter["correct"]


def test_four_move_certificates_get_their_constructed_verdicts():
    result, lines = measure("cert_check")
    assert result["correct"] and result["failed"] == 0
    assert "verdicts valid: 1, violates 2: 1, violates 4: 1" in lines
    assert result["metrics"]["decided_ratio"]["value"] == 1.0


def test_certificates_past_the_move_cap_are_refused_not_failed():
    result, lines = measure("cert_check", totals=(4,), past_cap=((8, 7, "valid"),))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] % 4 == 0
    assert result["metrics"]["decided_ratio"]["value"] == 0.75
    refused = result["attempted"] // 4
    assert f"error_rate = 0.25 (refused by the 14-move cap: {refused}, other errors: 0)" in lines


def test_a_wrong_answer_is_caught():
    inputs = workloads.generate("ring_enumerate", 1, 4)
    bad = [[[{"by_depth": {"0": 1, "1": 4}, "violations": 0, "partial": False}, 0.1, 5]]]
    assert run.check(inputs, bad).wrong
    cert = workloads.generate("cert_check", 1, 6, **FOUR_MOVES)
    flipped = [[[{"valid": not c.valid, "condition": c.condition}, 0.1, 1] for c in cert.certificates]]
    assert len(run.check(cert, flipped).wrong) == 3


def test_seeds_shuffle_inputs_but_not_answers():
    a = workloads.generate("ring_enumerate", 1, 6)
    b = workloads.generate("ring_enumerate", 2, 6)
    assert a.state != b.state and sorted(a.state.splitlines()) == sorted(b.state.splitlines())
    for workload in ("ring_enumerate", "tree_enumerate", "cert_check"):
        first, second = measure(workload, seed=1)[1][-1], measure(workload, seed=2)[1][-1]
        assert first == second


def test_runs_are_deterministic():
    digests = {measure("counter_run", seed=s)[1][-1] for s in (1, 2)}
    assert len(digests) == 1 and next(iter(digests)).startswith("trace sha256 ")
    for workload in ("ring_enumerate", "tree_enumerate"):
        depths = {measure(workload, seed=s)[1][-1] for s in (3, 4)}
        assert len(depths) == 1


def test_tracer_wraps_every_importer_and_restores():
    import ealgebra
    from ealgebra import distributed, evaluator, runner
    from ealgebra.state import State

    originals = (evaluator.updates, runner.updates, distributed.updates, State.canonical_key)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert evaluator.updates is runner.updates is distributed.updates is ealgebra.updates
        assert evaluator.updates is not originals[0]
        assert State.__dict__["canonical_key"] is not originals[3]
        inputs = workloads.generate("ring_enumerate", 1, 4)
        spec = ealgebra.parse_program(inputs.program)
        state = ealgebra.parse_state(inputs.state, spec.vocabulary, constants=spec.constants)
        recorder.run_id = 1
        assert len(ealgebra.enumerate_reachable(spec, state, 3).states) == 7
    finally:
        recorder.restore()
    assert tracer.leftover_wrappers() == []
    assert (evaluator.updates, runner.updates, distributed.updates, State.canonical_key) == originals
    ops = tracer.summarize(recorder)["ops"]
    assert ops["state.canonical_key"]["calls"] == 4 * 7 + 1  # every successor and the root
    assert ops["runner.enumerate_reachable"]["calls"] == 1
    assert ops["distributed.move_successors"]["extra"][0] == 4 * 7


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(TINY)
    for workload in TINY:
        for trace, names in ((False, end_to_end), (True, per_layer)):
            result, lines = measure(workload, trace=trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == names
            for name, unit in names.items():
                assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


def test_without_the_engine_no_result_is_printed(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "counter_run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
