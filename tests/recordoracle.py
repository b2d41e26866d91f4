"""Reference encoders for traces and the nested sort keys, kept as test
oracles.

``record_to_json`` is the records encoder as it was first written: a
payload dict handed to ``json.dumps(..., sort_keys=True)``.  The engine's
``runner.record_to_json`` writes the same bytes directly.  ``update_key``
and ``args_key`` are the nested keys that updates, family members and
stored facts were sorted by, built from each element's fields; the
engine sorts by flat keys that must give the same order.
``render_text`` is the text format of ``runner.render_trace`` over
updates sorted by ``update_key``.
"""

from __future__ import annotations

import json

from ealgebra import StaticMirror, format_element
from ealgebra.runner import RunTrace, StepRecord

_LOGIC_RANK = {"true": 0, "false": 1, "undef": 2}
_TAGS = {"logic": "l", "named": "n", "int": "i", "reserve": "r"}


def element_key(e) -> tuple:
    if e.kind == "logic":
        return (0, _LOGIC_RANK[e.value], "")
    if e.kind == "named":
        return (1, 0, e.value)
    if e.kind == "int":
        return (2, e.value, "")
    return (3, e.value, "")


def args_key(args) -> tuple:
    return tuple(element_key(a) for a in args)


def update_key(u) -> tuple:
    return (
        u.location.fname, args_key(u.location.args), element_key(u.value),
        isinstance(u, StaticMirror),
    )


def sorted_updates(beta) -> list:
    return sorted(beta, key=update_key)


def sorted_members(family) -> list:
    return sorted(family, key=lambda b: tuple(update_key(u) for u in sorted_updates(b)))


def stored_items(state) -> list:
    """The stored facts, by name and then by ``args_key``."""
    return sorted(state.facts(), key=lambda f: (f[0], args_key(f[1])))


def encode_element(e) -> str:
    return f"{_TAGS[e.kind]}:{e.value}"


def encode_update(u) -> dict:
    out = {
        "f": u.location.fname,
        "args": [encode_element(a) for a in u.location.args],
        "value": encode_element(u.value),
    }
    if isinstance(u, StaticMirror):
        out["mirror"] = True
    return out


def record_to_json(record: StepRecord) -> str:
    payload = {
        "step": record.index,
        "updates": [encode_update(u) for u in sorted_updates(record.updates)],
        "consistent": record.consistent,
        "fired": record.fired,
        "oracle": [
            [fname, [encode_element(a) for a in args], encode_element(v)]
            for fname, args, v in record.oracle_qa
        ],
    }
    if record.choice_index is not None or record.family_size is not None:
        payload["choice"] = record.choice_index
        payload["family"] = record.family_size
    if record.agent is not None:
        payload["agent"] = encode_element(record.agent)
    if record.conflicts:
        payload["conflicts"] = sorted(
            f"{loc!r} in {{{', '.join(sorted(format_element(v) for v in vals))}}}"
            for loc, vals in record.conflicts.items()
        )
    return json.dumps(payload, sort_keys=True)


def render_records(trace: RunTrace) -> str:
    lines = [record_to_json(r) for r in trace.records]
    lines.append(json.dumps({"stop": trace.stop_reason}, sort_keys=True))
    return "\n".join(lines) + "\n"


def render_text(trace: RunTrace) -> str:
    lines = []
    for r in trace.records:
        bits = [f"step {r.index}"]
        if r.agent is not None:
            bits.append(f"agent={format_element(r.agent)}")
        if r.family_size is not None:
            bits.append(f"family={r.family_size}")
        if r.choice_index is not None:
            bits.append(f"choice={r.choice_index}")
        bits.append(f"consistent={'yes' if r.consistent else 'no'}")
        bits.append(f"fired={'yes' if r.fired else 'no'}")
        lines.append(" ".join(bits))
        for u in sorted_updates(r.updates):
            kind = "mirror" if isinstance(u, StaticMirror) else "update"
            lines.append(f"  {kind} {u.location!r} := {format_element(u.value)}")
        for loc, vals in sorted(r.conflicts.items(), key=lambda kv: (kv[0].fname, args_key(kv[0].args))):
            cands = ", ".join(sorted(format_element(v) for v in vals))
            lines.append(f"  conflict {loc!r} in {{{cands}}}")
        for fname, args, value in r.oracle_qa:
            rendered = ", ".join(format_element(a) for a in args)
            lines.append(f"  oracle {fname}({rendered}) = {format_element(value)}")
    lines.append(f"stop {trace.stop_reason}")
    return "\n".join(lines) + "\n"
