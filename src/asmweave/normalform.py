"""Parallel-guarded-assignment form: classification and normalization.

A rule built from assignment, par, and if only (after inlining
non-recursive calls) can be flattened into a single par of guarded
assignments by pushing guards inward and conjoining them syntactically.
No boolean simplification is applied, so the transformation stays
obviously structure-preserving; `equivalence_check` then certifies it
semantically by enumerating a finite state space and comparing the update
sets both rules produce in every state.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .errors import AsmError, NotPGA, RecursiveCall, SpaceTooLarge
from .interp import enumerate_update_sets, instantiate_call, initial_state
from .parser import (
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
from .state import Location, State
from .values import TRUE, Value


@dataclass
class PgaVerdict:
    is_pga: bool
    offending: List[Tuple[Optional[tuple], str]]  # (position, construct name)


@dataclass
class NormalForm:
    clauses: List[Tuple[Term, Assign]]

    def to_rule(self) -> Par:
        return Par(tuple(If(g, a) for g, a in self.clauses))


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


def _inlined(machine: MachineDef, rule: Union[str, RuleExpr]) -> RuleExpr:
    body = machine.declarations[rule].body if isinstance(rule, str) else rule
    return inline_calls(machine, body)


def _verdict(body: RuleExpr) -> PgaVerdict:
    """Classify a body whose calls are already inlined."""
    offending: List[Tuple[Optional[tuple], str]] = []
    _collect_offending(body, offending)
    return PgaVerdict(not offending, offending)


def classify_pga(machine: MachineDef, rule: Union[str, RuleExpr]) -> PgaVerdict:
    """Judge whether a rule uses only assignment, par, and if."""
    return _verdict(_inlined(machine, rule))


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


def normalize(machine: MachineDef, rule: Union[str, RuleExpr]) -> NormalForm:
    """Flatten a PGA rule into par of if-guarded assignments."""
    body = _inlined(machine, rule)
    verdict = _verdict(body)
    if not verdict.is_pga:
        raise NotPGA(verdict.offending)
    raw: List[Tuple[Optional[Term], Assign]] = []
    _clauses(body, None, raw)
    return NormalForm([(g if g is not None else Lit(TRUE), a) for g, a in raw])


# ---------------------------------------------------------------------------
# Exhaustive small-state equivalence


Space = Sequence[Tuple[Location, Sequence[Value]]]

DEFAULT_SPACE_BUDGET = 10**6


@dataclass
class EquivVerdict:
    passed: bool
    states_checked: int
    witness: Optional[State] = None
    left: Optional[str] = None
    right: Optional[str] = None

    def __bool__(self) -> bool:
        return self.passed


def _outcome(body: RuleExpr, state: State, machine: MachineDef, bound: int):
    try:
        sets = enumerate_update_sets(body, state, machine, bound)
    except AsmError as e:
        return ("error", type(e).__name__)
    return ("sets", frozenset(sets))


def _as_body(machine: MachineDef, rule: Union[str, RuleExpr, NormalForm]) -> RuleExpr:
    if isinstance(rule, str):
        return machine.declarations[rule].body
    if isinstance(rule, NormalForm):
        return rule.to_rule()
    return rule


def equivalence_check(
    machine: MachineDef,
    rule1: Union[str, RuleExpr, NormalForm],
    rule2: Union[str, RuleExpr, NormalForm],
    space: Space,
    state_budget: int = DEFAULT_SPACE_BUDGET,
    branch_bound: int = 1000,
) -> EquivVerdict:
    """Compare the update sets of two rules on every state of a finite space.

    Nondeterministic rules compare as sets of possible update sets. Two
    rules also agree on a state when both fail there with the same kind of
    error. The returned witness is the first state where they differ.
    """
    size = 1
    for _, candidates in space:
        size *= max(len(candidates), 1)
    if size > state_budget:
        raise SpaceTooLarge(size, state_budget)
    body1 = _as_body(machine, rule1)
    body2 = _as_body(machine, rule2)
    base = initial_state(machine)
    locs = [loc for loc, _ in space]
    checked = 0
    for combo in itertools.product(*[cands for _, cands in space]):
        state = base.with_content(dict(zip(locs, combo)))
        checked += 1
        o1 = _outcome(body1, state, machine, branch_bound)
        o2 = _outcome(body2, state, machine, branch_bound)
        if o1 != o2:
            return EquivVerdict(False, checked, state, repr(o1), repr(o2))
    return EquivVerdict(True, checked)
