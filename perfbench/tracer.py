"""Span recorder that times the engine's public functions from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``ealgebra`` module that holds it, so a name imported with ``from
.evaluator import updates`` is wrapped in the importing module too;
methods are wrapped on their class.  ``Tracer.restore`` puts every
original back.  Spans stay in memory, eight integers each in one flat
array, ``run_id, span_id, parent_id, name, start_ns, end_ns`` and two
extra counts, until the caller writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

PACKAGE = "ealgebra"
FIELDS = 8  # integers per span

# (module, attribute, span name, two extra counts taken from (args, result)).
FUNCTIONS = (
    ("parser", "parse_program", "parser.parse_program", None),
    ("stateio", "parse_state", "stateio.parse_state", None),
    ("runner", "prepare_rule", "runner.prepare_rule", None),
    ("syntax", "is_perspicuous", "syntax.is_perspicuous", None),
    ("syntax", "is_core", "syntax.is_core", None),
    ("evaluator", "updates", "evaluator.updates", None),
    ("evaluator", "nupdates", "evaluator.nupdates", lambda args, fam: (fam.member_count(), 0)),
    ("evaluator", "eval_guard", "evaluator.eval_guard", None),
    ("distributed", "agents_of", "distributed.agents_of", None),
    ("distributed", "view", "distributed.view", None),
    ("distributed", "move_successors", "distributed.move_successors", lambda args, out: (len(out), 0)),
    ("distributed", "check_partial_run", "distributed.check_partial_run", None),
    ("certificate", "parse_certificate", "certificate.parse_certificate", None),
    ("runner", "enumerate_reachable", "runner.enumerate_reachable", None),
    ("runner", "step", "runner.step", None),
    ("runner", "run", "runner.run", None),
    ("runner", "render_trace", "runner.render_trace", None),
)

# (class, method, span name, extra counts).  A state "has reserve" once it
# has withdrawn an element, which for the tree workload means it mentions
# one; reading that field keeps the wrapper's own cost out of the spans.
METHODS = (
    (
        "State", "fire_update_set", "state.fire_update_set",
        lambda args, out: (len(args[1]), 0 if out[1] else 1),
    ),
    (
        "State", "canonical_key", "state.canonical_key",
        lambda args, out: (1 if args[0].reserve_next > 0 else 0, 0),
    ),
)


class Tracer:
    def __init__(self):
        self.spans = array("q")
        self.names: list[str] = []
        self.run_id = 0
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                counts = (0, 0) if extra is None or out is None else extra(args, out)
                spans.extend((self.run_id, span_id, parent, name_id, start, end) + counts)

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever the package's modules hold it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [module for _, module in _package_modules()]
        for mod_name, attr, name, extra in FUNCTIONS:
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(owner, attr, None)
            if original is None:
                continue  # absent in this version of the engine: reported as idle
            wrapper = self._wrap(name, original, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        state_module = sys.modules[f"{PACKAGE}.state"]
        for cls_name, attr, name, extra in METHODS:
            cls = getattr(state_module, cls_name)
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, extra))

    def restore(self) -> None:
        """Put every original back; raise if any wrapper is left behind."""
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []
        left = leftover_wrappers()
        if left:
            raise RuntimeError("wrappers left installed: " + ", ".join(left))


def _package_modules():
    return [
        (key, module) for key, module in sorted(sys.modules.items())
        if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def leftover_wrappers() -> list[str]:
    """Names in the package that still hold a tracing wrapper."""
    found = []
    for key, module in _package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{key}.{attr}")
            if isinstance(value, type):
                for meth, member in vars(value).items():
                    if hasattr(member, "__perfbench_original__"):
                        found.append(f"{key}.{attr}.{meth}")
    return found


def _rows(spans):
    for i in range(0, len(spans), FIELDS):
        yield spans[i : i + FIELDS]


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Per phase and span name: calls, inclusive and self time, extra
    counts, and the 50th and 99th percentile of the span durations.

    Phase ``setup`` is run id 0; phase ``ops`` is every later run id.
    """
    child_ns: dict[int, int] = {}
    for _, _, parent, _, start, end, _, _ in _rows(tracer.spans):
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out: dict[str, dict] = {}
    durations: dict[tuple[str, str], list[int]] = {}
    for run_id, span_id, _, name_id, start, end, extra0, extra1 in _rows(tracer.spans):
        phase = "setup" if run_id == 0 else "ops"
        name = tracer.names[name_id]
        entry = out.setdefault(phase, {}).setdefault(
            name, {"calls": 0, "ns": 0, "self_ns": 0, "extra": [0, 0]}
        )
        duration = end - start
        entry["calls"] += 1
        entry["ns"] += duration
        entry["self_ns"] += duration - child_ns.get(span_id, 0)
        entry["extra"][0] += extra0
        entry["extra"][1] += extra1
        durations.setdefault((phase, name), []).append(duration)
    for (phase, name), values in durations.items():
        values.sort()
        out[phase][name]["p50_ns"] = nearest_rank(values, 50)
        out[phase][name]["p99_ns"] = nearest_rank(values, 99)
    return out


def nearest_rank(ordered, percent):
    """The smallest value with at least ``percent`` % of the values at or below it."""
    return ordered[max(0, -(-percent * len(ordered) // 100) - 1)]


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\textra0\textra1\n")
        for run_id, span_id, parent, name_id, start, end, extra0, extra1 in _rows(tracer.spans):
            fh.write(
                f"{run_id}\t{span_id}\t{parent}\t{tracer.names[name_id]}\t"
                f"{start}\t{end}\t{extra0}\t{extra1}\n"
            )
