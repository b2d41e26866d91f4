"""The deterministic walker the evaluator kept beside its family walker,
the reference for ``evaluator.updates``.

``updates`` now returns the single member of a choice-free rule's direct
family.  Before that, a second induction over the same seven rule shapes
built the set directly; it is kept here unchanged, on the evaluator's own
helpers for terms, guards, import and duplication, so the two can be
compared rule by rule.
"""

from __future__ import annotations

from ealgebra import UpdateSet, syntax
from ealgebra.errors import ModeError
from ealgebra.evaluator import (
    _check_input,
    _duplicate_prelude,
    _eval_guard,
    _import_element,
    _instr_update,
    _make_ctx,
    _range_values,
)


def _updates(ctx, rule):
    if isinstance(rule, syntax.UpdateInstr):
        return frozenset({_instr_update(ctx, rule)})
    if isinstance(rule, syntax.Block):
        out = frozenset()
        for r in rule.rules:
            out |= _updates(ctx, r)
        return out
    if isinstance(rule, syntax.Cond):
        for g, r in rule.clauses:
            if _eval_guard(ctx, g):
                return _updates(ctx, r)
        return frozenset()
    if isinstance(rule, syntax.Import):
        a, withdrawal = _import_element(ctx, rule.vars[0])
        return frozenset({withdrawal}) | _updates(ctx.bind(rule.vars[0], a), rule.body)
    if isinstance(rule, syntax.Choose):
        raise ModeError("choose rules have no deterministic update set; use nupdates")
    if isinstance(rule, syntax.Decl):
        out = frozenset()
        for a in _range_values(ctx, rule.range):
            out |= _updates(ctx.bind(rule.var, a, declared=True), rule.body)
        return out
    if isinstance(rule, syntax.Duplicate):
        copy, prelude = _duplicate_prelude(ctx, rule)
        return prelude | _updates(ctx.bind(rule.var, copy), rule.body)
    raise TypeError(f"unsupported rule {type(rule).__name__}")


def updates(
    rule, state, env=None, alloc=None, *, decls=(), oracle=None, externals=(), footprint=None
) -> UpdateSet:
    """The update set of a choice-free core rule at a state."""
    ctx = _make_ctx(state, env, alloc, oracle, externals, decls, footprint)
    _check_input(rule, state, ctx.env, decls)
    return UpdateSet(_updates(ctx, rule))
