"""The three-pass normalizer, kept as the oracle for `asmweave.normalform`.

`inline_calls` rebuilds the rule with every call expanded,
`_collect_offending` finds the let/forall/choose constructs in the
rebuilt tree and `_clauses` pushes its guards inward. The one-walk
normalizer must give the same verdicts, clauses and errors
(`tests/test_normalform_oracle.py`).

`equivalence_check` is the comparison by testing as it was before
`enumerate_update_sets` left a lone update set unsorted: every state's
sets sorted by update keys computed afresh
(`tests/test_equivalence_oracle.py`).
"""
from __future__ import annotations

import itertools
from typing import List, Optional, Tuple, Union

from asmweave import interp
from asmweave.errors import AsmError, NotPGA, RecursiveCall, SpaceTooLarge
from asmweave.interp import initial_state, instantiate_call
from asmweave.normalform import BRANCH_BOUND, SPACE_BUDGET, EquivVerdict, NormalForm, PgaVerdict
from asmweave.parser import (
    App,
    Assign,
    Call,
    Choose,
    Forall,
    If,
    Let,
    Lit,
    MachineDef,
    Par,
    RuleExpr,
    Term,
)
from asmweave.values import TRUE, value_key


def inline_calls(machine: MachineDef, body: RuleExpr, stack: Tuple[str, ...] = ()) -> RuleExpr:
    """Expand every rule call; recursion cannot be inlined and errors out."""
    if isinstance(body, Call):
        if body.rname in stack:
            raise RecursiveCall(body.rname)
        expanded = instantiate_call(machine, body.rname, body.args)
        return inline_calls(machine, expanded, stack + (body.rname,))
    if isinstance(body, Par):
        return Par(tuple(inline_calls(machine, c, stack) for c in body.children), body.pos)
    if isinstance(body, If):
        return If(body.guard, inline_calls(machine, body.then_op, stack),
                  inline_calls(machine, body.else_op, stack) if body.else_op else None,
                  body.pos)
    if isinstance(body, Let):
        return Let(body.var, body.binding, inline_calls(machine, body.body, stack), body.pos)
    if isinstance(body, Forall):
        return Forall(body.var, body.domain, body.guard,
                      inline_calls(machine, body.body, stack), body.pos)
    if isinstance(body, Choose):
        return Choose(body.var, body.domain, body.guard,
                      inline_calls(machine, body.body, stack), body.pos, body.label)
    return body


def _collect_offending(op: RuleExpr, out: List[Tuple[Optional[tuple], str]]) -> None:
    if isinstance(op, (Assign,)):
        return
    if isinstance(op, Par):
        for c in op.children:
            _collect_offending(c, out)
        return
    if isinstance(op, If):
        _collect_offending(op.then_op, out)
        if op.else_op is not None:
            _collect_offending(op.else_op, out)
        return
    if isinstance(op, Let):
        out.append((op.pos, "let"))
        _collect_offending(op.body, out)
        return
    if isinstance(op, Forall):
        out.append((op.pos, "forall"))
        _collect_offending(op.body, out)
        return
    if isinstance(op, Choose):
        out.append((op.pos, "choose"))
        _collect_offending(op.body, out)
        return
    raise TypeError(f"not a rule expression: {op!r}")


def _conj(guard: Optional[Term], extra: Term) -> Term:
    return extra if guard is None else App("and", (guard, extra))


def _clauses(op: RuleExpr, guard: Optional[Term], out: List[Tuple[Optional[Term], Assign]]) -> None:
    if isinstance(op, Assign):
        out.append((guard, op))
        return
    if isinstance(op, Par):
        for c in op.children:
            _clauses(c, guard, out)
        return
    if isinstance(op, If):
        _clauses(op.then_op, _conj(guard, op.guard), out)
        if op.else_op is not None:
            _clauses(op.else_op, _conj(guard, App("not", (op.guard,))), out)
        return
    raise AsmError(f"normalize hit a non-PGA construct: {type(op).__name__}")


def _inlined(machine: MachineDef, rule: Union[str, RuleExpr]) -> RuleExpr:
    body = machine.declarations[rule].body if isinstance(rule, str) else rule
    return inline_calls(machine, body)


def _verdict(body: RuleExpr) -> PgaVerdict:
    offending: List[Tuple[Optional[tuple], str]] = []
    _collect_offending(body, offending)
    return PgaVerdict(not offending, offending)


def classify_pga(machine: MachineDef, rule: Union[str, RuleExpr]) -> PgaVerdict:
    return _verdict(_inlined(machine, rule))


def normalize(machine: MachineDef, rule: Union[str, RuleExpr]) -> NormalForm:
    body = _inlined(machine, rule)
    verdict = _verdict(body)
    if not verdict.is_pga:
        raise NotPGA(verdict.offending)
    raw: List[Tuple[Optional[Term], Assign]] = []
    _clauses(body, None, raw)
    return NormalForm([(g if g is not None else Lit(TRUE), a) for g, a in raw])


def _set_key(us) -> tuple:
    return tuple(sorted(((u.loc.fname, tuple(value_key(a) for a in u.loc.args)),
                         value_key(u.val)) for u in us.updates))


def _outcome(body: RuleExpr, state, machine: MachineDef):
    try:
        sets = sorted({us for us, _ in interp._probe(body, state, machine, BRANCH_BOUND)},
                      key=_set_key)
    except AsmError as e:
        return ("error", type(e).__name__)
    return ("sets", frozenset(sets))


def _as_body(machine: MachineDef, rule) -> RuleExpr:
    if isinstance(rule, str):
        return machine.declarations[rule].body
    return rule.to_rule() if isinstance(rule, NormalForm) else rule


def equivalence_check(machine: MachineDef, rule1, rule2, space) -> EquivVerdict:
    size = 1
    for _, candidates in space:
        size *= max(len(candidates), 1)
    if size > SPACE_BUDGET:
        raise SpaceTooLarge(size, SPACE_BUDGET)
    body1, body2 = _as_body(machine, rule1), _as_body(machine, rule2)
    base = initial_state(machine)
    locs = [loc for loc, _ in space]
    checked = 0
    for combo in itertools.product(*[c for _, c in space]):
        state = base.with_content(dict(zip(locs, combo)))
        checked += 1
        o1, o2 = _outcome(body1, state, machine), _outcome(body2, state, machine)
        if o1 != o2:
            return EquivVerdict(False, checked, state, repr(o1), repr(o2))
    return EquivVerdict(True, checked)
