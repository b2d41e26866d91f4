"""One measured process: reads a job as JSON on stdin, prints JSON on stdout.

Modes:

* ``setup``: time ``import ealgebra`` through parsing, state load, proviso
  and spec validation and ``prepare_rule``, in this fresh interpreter;
* ``run``: set up, do one untimed warm-up unit, then repeat units for the
  given seconds and report each operation's outcome and latency;
* ``trace``: set up with every traced function wrapped, restore the
  library, do one untimed warm-up unit, repeat units for half the given
  seconds wrapped again, restore, then repeat the same number of units
  untraced; the tracing overhead is the ratio of the two phases' median
  unit times.

Every timed unit and set-up is bracketed by ``calibrate``, a fixed loop
that does not use the engine, so the caller can scale out the changes in
machine speed that other tenants of a shared host cause.

A unit is one operation, except on ``cert_check`` where it is one whole
certificate batch, so every run checks whole batches.  The engine is
called only through names looked up on the ``ealgebra`` package at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time


def setup(ea, job):
    target = ea.parse_program(job["program"])
    state = ea.parse_state(job["state"], target.vocabulary, constants=target.constants)
    violations = state.audit_proviso()
    if violations:
        raise ea.StateValidityError("; ".join(violations))
    if isinstance(target, ea.DistributedSpec):
        ea.validate_spec_state(target, state)
        for program in target.modules.values():
            ea.prepare_rule(program)
    else:
        ea.prepare_rule(target)
    guard = None
    if job.get("assertion"):
        guard = ea.parse_guard_text(job["assertion"], target.vocabulary)
    return target, state, guard


def make_unit(ea, job, target, state, guard):
    """A callable doing one unit; returns [(outcome, seconds, work), ...]."""
    workload = job["workload"]
    clock = time.perf_counter

    def guarded(op):
        start = clock()
        try:
            outcome, work = op()
        except Exception as exc:  # counted as a failed operation, run goes on
            outcome, work = {"error": type(exc).__name__, "message": str(exc)}, 0
        return outcome, clock() - start, work

    if workload in ("ring_enumerate", "tree_enumerate"):
        def op():
            report = ea.enumerate_reachable(target, state, job["depth"], predicate=guard)
            by_depth = {}
            for _, level in report.states:
                by_depth[level] = by_depth.get(level, 0) + 1
            outcome = {
                "by_depth": by_depth,
                "violations": len(report.violations),
                "partial": report.partial,
            }
            return outcome, len(report.states)

        return lambda: [guarded(op)]

    if workload == "counter_run":
        def op():
            trace = ea.run(target, state, max_steps=job["steps"])
            text = ea.render_trace(trace, fmt="records")
            final = ea.format_state(trace.final_state)
            outcome = {
                "trace_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "final_sha256": hashlib.sha256(final.encode()).hexdigest(),
                "records": text,
                "final": final,
            }
            return outcome, len(trace.records)

        return lambda: [guarded(op)]

    if workload == "cert_check":
        def check(text):
            def op():
                pr = ea.parse_certificate(text, target)
                verdict = ea.check_partial_run(target, pr, initial_state=state)
                return {"valid": verdict.valid, "condition": verdict.condition}, 1

            return op

        ops = [check(c["text"]) for c in job["certificates"]]
        return lambda: [guarded(op) for op in ops]

    raise ValueError(f"unknown workload: {workload}")


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop does the engine's kind of work without the engine: tuple keys,
    dict lookups and a sort, then whole-table copies like those firing
    makes.  Its time tracks how fast this process runs at the moment.
    """
    start = time.perf_counter()
    table = {}
    for i in range(30000):
        key = (i % 97, i % 13, "x")
        table[key] = table.get(key, 0) + 1
    sorted(table.items())
    for _ in range(5):
        base = {(i,): i for i in range(2000)}
        for _ in range(60):
            copy = dict(base)
            copy[(-1,)] = 0
    return time.perf_counter() - start


def repeat(unit, seconds=None, count=None):
    """Run units until ``seconds`` have passed, or exactly ``count`` times.

    Returns per unit its operations as (outcome, seconds, work) and the
    mean calibration time measured just before and just after it.  Only the
    first unit keeps the counter's trace and state texts; digests identify
    the rest, and dropping the texts at once keeps them out of the peak RSS.
    """
    units = []
    start = time.perf_counter()
    while True:
        before = calibrate()
        ops = unit()
        if units:
            ops = [
                ({k: v for k, v in outcome.items() if k not in ("records", "final")}, seconds, work)
                for outcome, seconds, work in ops
            ]
        units.append({"calib": (before + calibrate()) / 2, "ops": ops})
        if count is not None:
            if len(units) >= count:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return units


def relative_unit_time(units) -> float:
    """Median unit time in calibration-loop units."""
    return statistics.median(
        sum(seconds for _, seconds, _ in unit["ops"]) / unit["calib"] for unit in units
    )


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    mode = job["mode"]

    if mode == "setup":
        before = calibrate()
        start = time.perf_counter()
        import ealgebra as ea

        setup(ea, job)
        took = time.perf_counter() - start
        print(json.dumps({"setup_s": took, "calib": (before + calibrate()) / 2}))
        return

    import ealgebra as ea

    if mode == "run":
        unit = make_unit(ea, job, *setup(ea, job))
        warmup = unit()
        payload = {"warmup": warmup, "units": repeat(unit, seconds=job["seconds"])}
    else:
        import tracer

        recorder = tracer.Tracer()
        recorder.install()
        try:
            unit = make_unit(ea, job, *setup(ea, job))
        finally:
            recorder.restore()
        unit()  # warm-up, untraced, so both timed phases start warm

        def traced_unit():
            recorder.run_id += 1
            return unit()

        recorder.install()
        try:
            units = repeat(traced_unit, seconds=job["seconds"] / 2)
        finally:
            recorder.restore()
        plain = repeat(unit, count=len(units))
        tracer.write_spans(recorder, job["spans_path"])
        payload = {
            "units": units,
            "summary": tracer.summarize(recorder),
            "overhead": relative_unit_time(units) / relative_unit_time(plain),
        }
    payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(payload))


if __name__ == "__main__":
    main()
