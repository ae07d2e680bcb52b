"""The tree-walking evaluator that the compiled one replaced, kept as the
oracle for `asmweave.interp`: every evaluation walks the syntax tree and
picks each node's case with `isinstance`, and every rule call substitutes
its arguments afresh. `eval_term` and `update_set` take the arguments of
their namesakes in `asmweave.interp`, so a test can put them in its place.

`probe` is the fork-and-restart enumerator that the replaying `_probe`
replaced, with the same arguments and the same yields: an evaluation that
meets an unfixed draw is dropped and run again once per candidate."""
from __future__ import annotations

from typing import Dict, List, Optional

from asmweave import interp
from asmweave.background import apply_background, is_background
from asmweave.errors import (
    ArityMismatch,
    BranchBudgetExceeded,
    CallDepthExceeded,
    EvalError,
    GuardNotBoolean,
    RangeNotSet,
    UnboundedAbstract,
    UnboundVariable,
)
from asmweave.interp import ResEntry, Resolver, instantiate_call
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
    Var,
    pp_term,
)
from asmweave.state import FunctionKind, Location, State, Update, UpdateSet
from asmweave.values import UNDEF, BoolV, SetV, Value, show_value

def eval_term(t: Term, state: State, env: Optional[Dict[str, Value]] = None,
              resolver: Optional[Resolver] = None) -> Value:
    env = env or {}
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, Var):
        if t.name not in env:
            raise UnboundVariable(f"unbound variable {t.name!r}", t.pos)
        return env[t.name]
    if isinstance(t, App):
        decl = state.sig.get(t.fname)
        args = tuple(eval_term(a, state, env, resolver) for a in t.args)
        if decl is not None:
            if decl.arity != len(args):
                raise ArityMismatch(
                    f"{t.fname!r} has arity {decl.arity}, got {len(args)}", t.pos)
            if decl.kind == FunctionKind.STATIC:
                return state.statics.get(Location(t.fname, args), UNDEF)
            if decl.kind == FunctionKind.ABSTRACT:
                if resolver is None:
                    raise EvalError(
                        f"abstract function {t.fname!r} needs a resolver", t.pos)
                return resolver.abstract(t.fname, args, decl.codomain, decl.arity, t.pos)
            return state.content.get(Location(t.fname, args), UNDEF)
        if is_background(t.fname):
            return apply_background(t.fname, args)
        raise EvalError(f"unknown function {t.fname!r}", t.pos)
    raise TypeError(f"not a term: {t!r}")


def _guard_value(guard: Term, state: State, env: Dict[str, Value], resolver) -> bool:
    v = eval_term(guard, state, env, resolver)
    if not isinstance(v, BoolV):
        raise GuardNotBoolean(
            f"guard {pp_term(guard)} evaluated to {show_value(v)}", guard.pos)
    return v.b



def update_set(
    op: RuleExpr,
    state: State,
    env: Optional[Dict[str, Value]] = None,
    resolver: Optional[Resolver] = None,
    machine: Optional[MachineDef] = None,
) -> UpdateSet:
    """Update set of one rule evaluation; does not fire it. Rule calls nest
    at most `interp.MAX_CALL_DEPTH` deep, the bound the compiled calls read."""
    return _update_set(op, state, env or {}, resolver, machine,
                       interp.MAX_CALL_DEPTH, 0)


def _update_set(op, state, env, resolver, machine, max_depth, depth) -> UpdateSet:
    if isinstance(op, Assign):
        args = tuple(eval_term(a, state, env, resolver) for a in op.lhs.args)
        val = eval_term(op.rhs, state, env, resolver)
        return UpdateSet.of([Update(Location(op.lhs.fname, args), val)])
    if isinstance(op, Par):
        out = UpdateSet.empty()
        for child in op.children:
            out = out.union(_update_set(child, state, env, resolver, machine,
                                        max_depth, depth))
        return out
    if isinstance(op, If):
        if _guard_value(op.guard, state, env, resolver):
            return _update_set(op.then_op, state, env, resolver, machine,
                               max_depth, depth)
        if op.else_op is not None:
            return _update_set(op.else_op, state, env, resolver, machine,
                               max_depth, depth)
        return UpdateSet.empty()
    if isinstance(op, Let):
        val = eval_term(op.binding, state, env, resolver)
        return _update_set(op.body, state, {**env, op.var: val}, resolver,
                           machine, max_depth, depth)
    if isinstance(op, Call):
        if machine is None:
            raise EvalError(f"rule call {op.rname!r} outside a machine context", op.pos)
        if depth >= max_depth:
            raise CallDepthExceeded(
                f"call depth {max_depth} exceeded at {op.rname!r}", op.pos)
        body = instantiate_call(machine, op.rname, op.args)
        return _update_set(body, state, env, resolver, machine, max_depth, depth + 1)
    if isinstance(op, Forall):
        domain = eval_term(op.domain, state, env, resolver)
        if not isinstance(domain, SetV):
            raise RangeNotSet(
                f"forall range evaluated to {show_value(domain)}", op.pos)
        out = UpdateSet.empty()
        for v in domain:  # canonical order
            inner = {**env, op.var: v}
            if op.guard is not None and not _guard_value(op.guard, state, inner, resolver):
                continue
            out = out.union(_update_set(op.body, state, inner, resolver, machine,
                                        max_depth, depth))
        return out
    if isinstance(op, Choose):
        domain = eval_term(op.domain, state, env, resolver)
        if not isinstance(domain, SetV):
            raise RangeNotSet(
                f"choose range evaluated to {show_value(domain)}", op.pos)
        candidates = []
        for v in domain:
            inner = {**env, op.var: v}
            if op.guard is None or _guard_value(op.guard, state, inner, resolver):
                candidates.append(v)
        if not candidates:
            return UpdateSet.empty()  # idle gracefully when nothing satisfies
        if resolver is None:
            raise EvalError("choose needs a resolver", op.pos)
        label = op.label
        if not label:
            label = f"choose@{op.pos[0]}:{op.pos[1]}" if op.pos else "choose"
        picked = resolver.choose(label, interp._ctx_digest(env), candidates, op.pos)
        return _update_set(op.body, state, {**env, op.var: picked}, resolver,
                           machine, max_depth, depth)
    raise TypeError(f"not a rule expression: {op!r}")


# ---------------------------------------------------------------------------
# Fork-and-restart enumeration


class _Fork(Exception):
    """An unfixed draw was met: the evaluation is dropped."""

    def __init__(self, key: str, candidates: List[Value]) -> None:
        self.key = key
        self.candidates = candidates


class _Forking(Resolver):
    """Draws the value `fixed` holds for a key, and forks on any other."""

    def __init__(self, agent: str, fixed: Dict[str, Value]) -> None:
        super().__init__()
        self.set_agent(agent)
        self.fixed = fixed

    def _draw(self, kind, label, key, candidates, pos) -> Value:
        if key not in self.fixed:
            raise _Fork(key, candidates)
        self._record.append(ResEntry(kind, label, key, self.fixed[key]))
        return self.fixed[key]

    def abstract(self, fname, args, codomain, arity, pos) -> Value:
        if codomain is None and arity:
            raise UnboundedAbstract(f"abstract function {fname!r} has no codomain hint", pos)
        return super().abstract(fname, args, codomain, arity, pos)


def probe(body: RuleExpr, state: State, machine: Optional[MachineDef], bound: int,
          agent: str = ""):
    """Depth first over a stack of fixed-draw dicts, last candidate first.
    Raises BranchBudgetExceeded at a fork once the finished evaluations,
    the pending dicts and the new candidates together pass `bound`."""
    state = interp._agent_view(state, agent)
    pending: List[Dict[str, Value]] = [{}]
    leaves = 0
    while pending:
        fixed = pending.pop()
        resolver = _Forking(agent, fixed)
        resolver.begin_step(state)
        try:
            us = interp.update_set(body, state, None, resolver, machine)
        except _Fork as f:
            if leaves + len(pending) + len(f.candidates) > bound:
                raise BranchBudgetExceeded(bound) from None
            for v in f.candidates:
                pending.append({**fixed, f.key: v})
            continue
        leaves += 1
        yield us, resolver.end_step()
