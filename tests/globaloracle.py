"""The family of a rule over global choice functions, the paper's second
characterization, kept as a test oracle for ``evaluator.nupdates``.

A global choice function resolves every choose of the rule at once.  The
resolutions in which a choose has an empty range or picks an element that
fails its qualifier are contradictory; they make one bottom member, which
fires as a no-op.  The engine runs only direct induction, which drops
them, so both families reach the same states
(``quasioracle.successor_states``).  The walk uses the frozen interpreter
of ``interporacle``, not the compiled evaluator it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ealgebra import TRUE, UpdateSet, syntax

from interporacle import (
    _check_input, _cross, _duplicate_prelude, _eval, _eval_guard, _extent, _import_element,
    _instr_update, _make_ctx, _range_values,
)


@dataclass(frozen=True)
class GlobalFamily:
    """Alternative update sets, and whether bottom is one of them."""

    sets: frozenset[UpdateSet]
    contains_bottom: bool


def _global(ctx, rule: syntax.Rule) -> tuple[set[frozenset], bool]:
    """The members of ``rule``'s family and whether it holds bottom."""
    if isinstance(rule, syntax.UpdateInstr):
        return {frozenset({_instr_update(ctx, rule)})}, False
    if isinstance(rule, (syntax.Block, syntax.Decl)):
        if isinstance(rule, syntax.Block):
            parts = [(ctx, r) for r in rule.rules]
        else:
            parts = [
                (ctx.bind(rule.var, a, declared=True), rule.body)
                for a in _range_values(ctx, rule.range)
            ]
        acc, bottom = {frozenset()}, False
        for sub, r in parts:
            fam, bot = _global(sub, r)
            acc, bottom = _cross(acc, fam), bottom or bot
        return acc, bottom
    if isinstance(rule, syntax.Cond):
        for g, r in rule.clauses:
            if _eval_guard(ctx, g):
                return _global(ctx, r)
        return {frozenset()}, False
    if isinstance(rule, syntax.Import):
        a, withdrawal = _import_element(ctx, rule.vars[0])
        fam, bottom = _global(ctx.bind(rule.vars[0], a), rule.body)
        return {member | {withdrawal} for member in fam}, bottom
    if isinstance(rule, syntax.Duplicate):
        copy, prelude = _duplicate_prelude(ctx, rule)
        fam, bottom = _global(ctx.bind(rule.var, copy), rule.body)
        return {member | prelude for member in fam}, bottom
    if isinstance(rule, syntax.Choose):
        members = _extent(ctx, rule.universe)
        out, bottom = set(), not members
        for a in members:
            bound = ctx.bind(rule.vars[0], a)
            if rule.qualifier is None or _eval(bound, rule.qualifier) == TRUE:
                fam, bot = _global(bound, rule.body)
                out, bottom = out | fam, bottom or bot
            else:
                bottom = True
        return out, bottom
    raise TypeError(f"unsupported rule {type(rule).__name__}")


def global_family(rule, state) -> GlobalFamily:
    """Family of update sets computed by ranging over global choice
    functions, with the contradictory resolutions as bottom."""
    ctx = _make_ctx(state, None, None, None, (), (), None)
    _check_input(rule, state, ctx.env, ())
    members, bottom = _global(ctx, rule)
    return GlobalFamily(frozenset(UpdateSet(m) for m in members), bottom)
