"""Benchmark of the ealgebra engine on four workloads generated in code.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ring_enumerate --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``ring_enumerate``: ``enumerate_reachable`` on a ring of 10 philosophers
  with the closed assertion that no two neighbours eat;
* ``tree_enumerate``: a choose-and-import rule that grows trees,
  enumerated to depth 5;
* ``counter_run``: ``run`` of ``c := c + 1, F(c) := c`` for 2000 steps,
  then ``render_trace`` in the records format;
* ``cert_check``: ``parse_certificate`` and ``check_partial_run`` on a
  seeded batch of two-chain certificates over a ring of 8 philosophers.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate traced run, which also writes its spans to
``.perfbench/spans-<workload>.tsv``.  Every answer is checked against
``reference``; a wrong answer makes the command exit 1.  Each measured
part runs in fresh interpreters (``worker.py``); this process never
imports the engine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

SETUP_PROBES = 7
# The timed loop is split over this many fresh interpreters: speed differs
# by up to 12% from one process to the next (heap layout), which a single
# process per run would carry into the run's median.
RUN_PROCESSES = 3
TIMEOUT_S = 170  # every run ends within 180 s

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "decided_ratio": "ratio",
}

# The name each workload's unit of work has in the engine's own terms.
WORK_NAMES = {
    "ring_enumerate": "states_per_s",
    "tree_enumerate": "states_per_s",
    "counter_run": "steps_per_s",
    "cert_check": "verdicts_per_s",
}

SETUP_SPANS = ("parser.parse_program", "stateio.parse_state", "runner.prepare_rule")

# Span name -> fields reported per operation of the traced run.
OP_SPANS = {
    "syntax.is_perspicuous": ("calls", "self_ms"),
    "syntax.is_core": ("calls", "self_ms"),
    "evaluator.updates": ("calls", "self_ms"),
    "evaluator.nupdates": ("calls", "self_ms", "members"),
    "evaluator.eval_guard": ("calls", "self_ms"),
    "state.fire_update_set": ("calls", "self_ms", "updates", "inconsistent"),
    "state.canonical_key": ("calls", "self_ms", "reserve_calls"),
    "distributed.agents_of": ("calls", "self_ms"),
    "distributed.view": ("calls", "self_ms"),
    "distributed.move_successors": ("calls", "self_ms", "successors"),
    "distributed.check_partial_run": ("calls", "self_ms", "segments"),
    "certificate.parse_certificate": ("ms",),
    "runner.enumerate_reachable": ("self_ms",),
    "runner.step": ("calls", "p50_us", "p99_us"),
    "runner.run": ("self_ms",),
    "runner.render_trace": ("ms",),
}

FIELD_UNITS = {
    "calls": "count/op",
    "self_ms": "ms/op",
    "ms": "ms/op",
    "members": "count/op",
    "updates": "count/op",
    "inconsistent": "count/op",
    "reserve_calls": "count/op",
    "successors": "count/op",
    "segments": "count/op",
    "p50_us": "us",
    "p99_us": "us",
}

# Extra counts the tracer records: field -> position in the span's extra.
EXTRA_FIELDS = {
    "members": 0, "updates": 0, "inconsistent": 1, "reserve_calls": 0, "successors": 0,
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.ms": "ms" for name in SETUP_SPANS}
    for name, fields in OP_SPANS.items():
        for field in fields:
            units[f"{name}.{field}"] = FIELD_UNITS[field]
    units["runner.dedup_hit_ratio"] = "ratio"
    units["trace_overhead"] = "ratio"
    return units


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def call_worker(job: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER)],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def job_for(inputs: workloads.Inputs, mode: str, seconds: float) -> dict:
    job = {
        "mode": mode,
        "src": str(SRC),
        "workload": inputs.workload,
        "program": inputs.program,
        "state": inputs.state,
        "assertion": inputs.assertion,
        "depth": inputs.depth,
        "steps": inputs.steps,
        "seconds": seconds,
    }
    if inputs.certificates is not None:
        job["certificates"] = [{"text": c.text} for c in inputs.certificates]
    return job


# ---------------------------------------------------------------------------
# Checking answers


@dataclass
class Verdicts:
    """Outcome tally of one run's operations against the references."""

    attempted: int = 0
    decided: int = 0
    capped: int = 0  # refused by the engine's move cap
    failed: int = 0  # raised for any other reason
    wrong: list[str] = field(default_factory=list)


def _depths(by_depth: dict) -> dict[int, int]:
    return {int(k): v for k, v in by_depth.items()}


def _check_counter(outcome: dict, steps: int) -> list[str]:
    problems = []
    facts = {}
    for line in outcome["final"].splitlines():
        loc, _, value = line.partition(" = ")
        facts[loc.strip()] = value.strip()
    if facts != reference.counter_final_facts(steps):
        problems.append("final state differs from c = n, F(i) = i")
    lines = outcome["records"].splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    if json.loads(lines[-1]) != {"stop": "max-steps"} or len(records) != steps:
        problems.append("trace does not end after the requested steps")
    for i, rec in enumerate(records, start=1):
        got = {
            u["f"] + (f"({', '.join(u['args'])})" if u["args"] else ""): u["value"]
            for u in rec["updates"]
        }
        if rec["step"] != i or got != reference.counter_step_updates(i) or not rec["fired"]:
            problems.append(f"trace step {i} differs from the closed form")
            break
    return problems


def check(inputs: workloads.Inputs, units: list) -> Verdicts:
    """Compare every operation of every unit with its reference answer.

    ``units`` holds one list of (outcome, seconds, work) per unit.
    """
    tally = Verdicts()
    want = workloads.expected(inputs)
    digests = set()
    for ops in units:
        for j, (outcome, _, _) in enumerate(ops):
            cert = inputs.certificates[j] if inputs.certificates else None
            tally.attempted += 1
            if "error" in outcome:
                if cert is not None and cert.past_cap and outcome["error"] == "CertificateError":
                    tally.capped += 1
                else:
                    tally.failed += 1
                continue
            tally.decided += 1
            if cert is not None:
                got = (outcome["valid"], outcome["condition"])
                if got != (cert.valid, cert.condition):
                    tally.wrong.append(f"certificate verdict {got}, expected {(cert.valid, cert.condition)}")
            elif "by_depth" in outcome:
                if _depths(outcome["by_depth"]) != want or outcome["violations"] or outcome["partial"]:
                    tally.wrong.append(f"reachable states by depth {outcome['by_depth']}, expected {want}")
            else:
                digests.add((outcome["trace_sha256"], outcome["final_sha256"]))
                if "records" in outcome:
                    tally.wrong.extend(_check_counter(outcome, inputs.steps))
    if len(digests) > 1:
        tally.wrong.append("counter traces differ between identical runs")
    return tally


# ---------------------------------------------------------------------------
# Metrics
#
# On a shared host, other tenants slow this process by up to 1.7x for tens
# of seconds at a time, which moves raw medians between runs by 10-30%.
# Every time is therefore scaled to a reference speed: multiplied by
# CALIBRATION_S over the time the worker's fixed calibration loop took right
# next to it.  The loop does not use the engine, so a change to the engine
# moves the scaled times exactly as it moves the raw ones.  The raw values
# are printed too.

CALIBRATION_S = 0.0091  # the calibration loop on an idle 2-vCPU x86-64 host, Python 3.11


def scaled(seconds: float, calib: float) -> float:
    return seconds * CALIBRATION_S / calib


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups, units, tally, peak_rss_mb, scale=scaled) -> dict[str, float]:
    """Medians over set-up probes, units and repeats of each operation.

    ``scale`` maps (seconds, calibration seconds) to the reported time.
    """
    decided_ms = [
        statistics.median(scale(unit["ops"][j][1], unit["calib"]) for unit in units) * 1000
        for j, (outcome, _, _) in enumerate(units[0]["ops"])
        if "error" not in outcome
    ]
    if not decided_ms:
        raise BenchError("no operation returned an answer")
    rates = [
        sum(w for _, _, w in unit["ops"])
        / scale(sum(s for _, s, _ in unit["ops"]), unit["calib"])
        for unit in units
    ]
    return {
        "setup_s": statistics.median(scale(p["setup_s"], p["calib"]) for p in setups),
        "work_per_s": statistics.median(rates),
        "op_p50_ms": percentile(decided_ms, 50),
        "op_p90_ms": percentile(decided_ms, 90),
        "peak_rss_mb": peak_rss_mb,
        "decided_ratio": tally.decided / tally.attempted,
    }


def per_layer(inputs, units, summary, overhead) -> dict[str, float]:
    """Per-layer metrics of the traced operations, per operation.

    Times are scaled by the traced units' median calibration.
    """
    setup = summary.get("setup", {})
    ops = summary.get("ops", {})
    n = sum(len(unit["ops"]) for unit in units)
    ms = scaled(1e-6, statistics.median(unit["calib"] for unit in units))  # per nanosecond
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "extra": [0, 0], "p50_ns": 0, "p99_ns": 0}
    values = {f"{name}.ms": setup.get(name, empty)["ns"] * ms for name in SETUP_SPANS}
    for name, fields in OP_SPANS.items():
        entry = ops.get(name, empty)
        for field in fields:
            if field == "calls":
                value = entry["calls"] / n
            elif field == "self_ms":
                value = entry["self_ns"] * ms / n
            elif field == "ms":
                value = entry["ns"] * ms / n
            elif field in ("p50_us", "p99_us"):
                value = entry[field[:3] + "_ns"] * ms * 1000
            elif field == "segments":
                value = segments_checked(inputs, units) / n
            else:
                value = entry["extra"][EXTRA_FIELDS[field]] / n
            values[f"{name}.{field}"] = value
    keys = ops.get("state.canonical_key", empty)["calls"]
    enumerates = inputs.workload.endswith("enumerate")
    distinct = sum(w for unit in units for _, _, w in unit["ops"]) if enumerates else 0
    values["runner.dedup_hit_ratio"] = 1 - distinct / keys if keys else 0.0
    values["trace_overhead"] = overhead
    return values


def segments_checked(inputs, units) -> int:
    """Initial segments of the certificates that got a verdict."""
    if inputs.certificates is None:
        return 0
    return sum(
        inputs.certificates[j].segments
        for unit in units
        for j, (outcome, _, _) in enumerate(unit["ops"])
        if "error" not in outcome
    )


# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, size: int | None = None, **small):
    """One benchmark run; returns (result object, human-readable lines)."""
    if not (SRC / "ealgebra" / "__init__.py").is_file():
        raise BenchError(f"engine sources not found under {SRC}")
    inputs = workloads.generate(workload, seed, size, **small)
    lines = [f"workload {workload} seed {seed} size {inputs.size} trace {int(trace)}"]
    deadline = time.monotonic() + TIMEOUT_S
    if trace:
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        job = job_for(inputs, "trace", seconds)
        job["spans_path"] = str(spans_dir / f"spans-{workload}.tsv")
        out = call_worker(job, deadline - time.monotonic())
        metric_units = per_layer_units()
    else:
        setups = [
            call_worker(job_for(inputs, "setup", seconds), deadline - time.monotonic())
            for _ in range(SETUP_PROBES + 1)
        ][1:]  # the first probe may compile bytecode; it is not counted
        outs = [
            call_worker(job_for(inputs, "run", seconds / RUN_PROCESSES), deadline - time.monotonic())
            for _ in range(RUN_PROCESSES)
        ]
        out = {
            "warmups": [o["warmup"] for o in outs],
            "units": [unit for o in outs for unit in o["units"]],
            "peak_rss_mb": max(o["peak_rss_mb"] for o in outs),
        }
        metric_units = END_TO_END
    timed = check(inputs, [unit["ops"] for unit in out["units"]])
    wrong = check(inputs, out.get("warmups", []) + [unit["ops"] for unit in out["units"]]).wrong
    if trace:
        metrics = per_layer(inputs, out["units"], out["summary"], out["overhead"])
    else:
        metrics = end_to_end(setups, out["units"], timed, out["peak_rss_mb"])
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {metric_units[name]}")
    if not trace:
        raw = end_to_end(setups, out["units"], timed, out["peak_rss_mb"], scale=lambda s, c: s)
        lines.append("unscaled: " + ", ".join(
            f"{name} = {raw[name]:.6g} {metric_units[name]}" for name in ("setup_s", "work_per_s", "op_p50_ms", "op_p90_ms")
        ))
        lines.append(f"{WORK_NAMES[workload]} = {metrics['work_per_s']:.6g} 1/s")
        lines.append(
            f"error_rate = {(timed.capped + timed.failed) / timed.attempted:.6g} "
            f"(refused by the 14-move cap: {timed.capped}, other errors: {timed.failed})"
        )
    lines.append(f"operations {timed.attempted} in {len(out['units'])} units")
    lines.append(describe(out["units"][0]["ops"]))
    for problem in wrong[:10]:
        lines.append(f"WRONG: {problem}")
    result = {
        "correct": not wrong,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {name: {"value": value, "unit": metric_units[name]} for name, value in metrics.items()},
    }
    return result, lines


def describe(unit) -> str:
    """The answers of one unit: depth counts, trace digest or verdict mix."""
    outcome = unit[0][0]
    if "by_depth" in outcome:
        depths = " ".join(f"{k}:{v}" for k, v in sorted(_depths(outcome["by_depth"]).items()))
        return f"states by depth {depths} (total {sum(outcome['by_depth'].values())})"
    if "trace_sha256" in outcome:
        return f"trace sha256 {outcome['trace_sha256']}"
    kinds = {}
    for o, _, _ in unit:
        key = "refused" if "error" in o else ("valid" if o["valid"] else f"violates {o['condition']}")
        kinds[key] = kinds.get(key, 0) + 1
    return "verdicts " + ", ".join(f"{k}: {v}" for k, v in sorted(kinds.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
