"""Parallel-guarded-assignment form: classification and normalization.

A rule built from assignment, par, and if only (after inlining
non-recursive calls) can be flattened into a single par of guarded
assignments by pushing guards inward and conjoining them syntactically.
One walk does both jobs: it expands each call where it meets it, records
each assignment under the conjunction of the guards above it, and each
let, forall and choose it passes. No boolean simplification is applied,
so the transformation stays obviously structure-preserving;
`equivalence_check` then certifies it semantically by enumerating a
finite state space and comparing the update sets both rules produce in
every state.
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


def _conj(guard: Optional[Term], extra: Term) -> Term:
    return extra if guard is None else App("and", (guard, extra))


def _walk(machine: MachineDef, rule: Union[str, RuleExpr]):
    """One walk over a rule with its calls expanded in place: the guarded
    assignments, in source order, and the let/forall/choose constructs
    that keep the rule from being PGA, in source order."""
    clauses: List[Tuple[Term, Assign]] = []
    offending: List[Tuple[Optional[tuple], str]] = []

    def walk(op: RuleExpr, guard: Optional[Term], stack: Tuple[str, ...]) -> None:
        if isinstance(op, Assign):
            clauses.append((Lit(TRUE) if guard is None else guard, op))
        elif isinstance(op, Par):
            for c in op.children:
                walk(c, guard, stack)
        elif isinstance(op, If):
            walk(op.then_op, _conj(guard, op.guard), stack)
            if op.else_op is not None:
                walk(op.else_op, _conj(guard, App("not", (op.guard,))), stack)
        elif isinstance(op, Call):
            # recursion cannot be inlined
            if op.rname in stack:
                raise RecursiveCall(op.rname)
            walk(instantiate_call(machine, op.rname, op.args), guard, stack + (op.rname,))
        elif isinstance(op, (Let, Forall, Choose)):
            offending.append((op.pos, type(op).__name__.lower()))
            walk(op.body, guard, stack)
        else:
            raise TypeError(f"not a rule expression: {op!r}")

    walk(machine.declarations[rule].body if isinstance(rule, str) else rule, None, ())
    return clauses, offending


def classify_pga(machine: MachineDef, rule: Union[str, RuleExpr]) -> PgaVerdict:
    """Judge whether a rule uses only assignment, par, and if."""
    offending = _walk(machine, rule)[1]
    return PgaVerdict(not offending, offending)


def normalize(machine: MachineDef, rule: Union[str, RuleExpr]) -> NormalForm:
    """Flatten a PGA rule into par of if-guarded assignments."""
    clauses, offending = _walk(machine, rule)
    if offending:
        raise NotPGA(offending)
    return NormalForm(clauses)


# ---------------------------------------------------------------------------
# Exhaustive small-state equivalence


Space = Sequence[Tuple[Location, Sequence[Value]]]

# the most states `equivalence_check` enumerates, and the most resolutions
# it tries per rule and state
SPACE_BUDGET = 10**6
BRANCH_BOUND = 1000


@dataclass
class EquivVerdict:
    passed: bool
    states_checked: int
    witness: Optional[State] = None
    left: Optional[str] = None
    right: Optional[str] = None

    def __bool__(self) -> bool:
        return self.passed


def _outcome(body: RuleExpr, state: State, machine: MachineDef):
    try:
        sets = enumerate_update_sets(body, state, machine, BRANCH_BOUND)
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
) -> EquivVerdict:
    """Compare the update sets of two rules on every state of a finite space.

    Nondeterministic rules compare as sets of possible update sets. Two
    rules also agree on a state when both fail there with the same kind of
    error. The returned witness is the first state where they differ.
    """
    size = 1
    for _, candidates in space:
        size *= max(len(candidates), 1)
    if size > SPACE_BUDGET:
        raise SpaceTooLarge(size, SPACE_BUDGET)
    body1 = _as_body(machine, rule1)
    body2 = _as_body(machine, rule2)
    base = initial_state(machine)
    locs = [loc for loc, _ in space]
    checked = 0
    for combo in itertools.product(*[cands for _, cands in space]):
        state = base.with_content(dict(zip(locs, combo)))
        checked += 1
        o1 = _outcome(body1, state, machine)
        o2 = _outcome(body2, state, machine)
        if o1 != o2:
            return EquivVerdict(False, checked, state, repr(o1), repr(o2))
    return EquivVerdict(True, checked)
