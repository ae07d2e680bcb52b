"""Term evaluation and update-set semantics for the seven rule constructs.

One step evaluates a rule against a state and collects an update set:
assignment contributes a single (location, value) pair; par unions its
children's sets; if selects a branch by its boolean guard; let binds a
value; a rule call substitutes argument terms for formals (by name, so
arguments are re-evaluated at each use); forall unions the body's set over
every range element satisfying the guard; choose picks one such element
through the resolver. What a step does with its update set is decided in
one place, `_outcome`: a clash is Inconsistent, an empty set is Stalled
(unless the step may stutter), and anything else fires into Progressed.

Every step is a step of an agent set over one shared state, taken by
`ma_step` under one of three schedulers: synchronous (all agents step
against the same pre-state and their update sets are unioned),
interleaving (one schedulable agent per step, picked through the
resolver) and a scripted order. Each agent loops its own rule with the
implicit `self` input bound to its id. A machine without agent lines is
the anonymous agent "": it has no `self`, its draw keys are unscoped and
its steps name no schedule; with nobody to pick among, interleaving steps
it as synchronous does. `step` and `run` are `ma_step` and `ma_run`
for that agent, so `run`, `explore` and refinement agree on what a plain
machine does, and a counterexample `explore` exports for it replays with
`run`.

Nondeterminism is funneled through `Resolver`: seeded draws are a pure
function of (seed, step, resolution key), and scripted draws replay
recorded or hand-written choices. One enumerator, `_probe`, forks over
every possible draw on an agent's view of the state; `enumerate_steps`,
`enumerate_update_sets` and the interleaving scheduler's progress check
all consume it. `enumerate_steps` deduplicates and orders its outcomes by
update set (by clash set when inconsistent), so each distinct successor
is fired once. Resolution keys combine the choose label with a digest of
the lexical bindings in scope, not the visit order, which keeps par
children order-independent.

Traces record states, not digests: `Trace.digests` hashes the recorded
states only when a trace is compared or exported.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    ArityMismatch,
    BranchBudgetExceeded,
    CallDepthExceeded,
    EvalError,
    GuardNotBoolean,
    InconsistentUpdateSet,
    RangeNotSet,
    ScriptViolation,
    UnboundedAbstract,
    UnboundVariable,
)
from .background import apply_background, is_background
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
    Var,
    pp_term,
)
from .state import (
    FunctionKind,
    Location,
    State,
    Update,
    UpdateSet,
    conflicts,
    fire,
    state_digest,
)
from .values import (
    FALSE,
    TRUE,
    UNDEF,
    BoolV,
    SetV,
    SymV,
    Value,
    decode_value,
    encode_value,
    show_value,
    value_key,
)

# deep rule-call chains recurse through the evaluator; the configurable
# call-depth bound is what actually limits them
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))

DEFAULT_CALL_DEPTH = 1000

BOOLS = SetV(frozenset({TRUE, FALSE}))


# ---------------------------------------------------------------------------
# Environments


class Env:
    """Immutable lexical bindings for let/forall/choose variables and formals."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: Optional[Dict[str, Value]] = None) -> None:
        self.bindings: Dict[str, Value] = dict(bindings or {})

    @staticmethod
    def empty() -> "Env":
        return _EMPTY_ENV

    def bind(self, name: str, value: Value) -> "Env":
        merged = dict(self.bindings)
        merged[name] = value
        return Env(merged)

    def get(self, name: str, pos) -> Value:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundVariable(f"unbound variable {name!r}", pos) from None

    def ctx_digest(self) -> str:
        if not self.bindings:
            return ""
        blob = "|".join(
            f"{k}={show_value(self.bindings[k])}" for k in sorted(self.bindings)
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:8]


_EMPTY_ENV = Env()


# ---------------------------------------------------------------------------
# Resolvers


@dataclass(frozen=True)
class ResEntry:
    """One recorded resolution: a choose pick, abstract draw, monitored
    injection, or scheduling decision."""

    kind: str  # choose | abstract | monitored | schedule
    label: str
    key: str
    value: Value

    def to_json(self) -> dict:
        return {"kind": self.kind, "label": self.label, "key": self.key,
                "value": encode_value(self.value)}

    @staticmethod
    def from_json(obj: dict) -> "ResEntry":
        return ResEntry(obj["kind"], obj["label"], obj.get("key", ""),
                        decode_value(obj["value"]))


class _Fork(Exception):
    """Internal signal: an unresolved draw was hit while probing."""

    def __init__(self, key: str, candidates: List[Value]) -> None:
        self.key = key
        self.candidates = candidates


def _prf(seed: int, key: str, n: int) -> int:
    h = hashlib.sha256(f"{seed}|{key}".encode()).digest()
    return int.from_bytes(h[:8], "big") % n


def _base_label(label: str) -> str:
    return label.split("~", 1)[0]


class Resolver:
    """Pluggable source of nondeterministic decisions.

    Seeded mode draws as a pure function of (seed, step, resolution key).
    Scripted mode consumes per-step tagged entries, optionally falling back
    to a seed for anything unscripted. Probe mode is internal to `_probe`.
    """

    def __init__(
        self,
        *,
        seed: Optional[int] = None,
        script: Optional[Sequence[Sequence[ResEntry]]] = None,
        monitored: Optional[Sequence[Dict[Location, Value]]] = None,
        probe: Optional[Dict[str, Value]] = None,
    ) -> None:
        self.seed = seed
        self.script = [list(s) for s in script] if script is not None else None
        self.monitored = list(monitored) if monitored is not None else None
        self.probe = probe
        self.step_index = 0
        self._occ: Dict[str, int] = {}
        self._abs_cache: Dict[str, Value] = {}
        self._record: List[ResEntry] = []
        self._agent: str = ""

    @staticmethod
    def seeded(seed: int, monitored=None) -> "Resolver":
        return Resolver(seed=seed, monitored=monitored)

    @staticmethod
    def scripted(script, fallback_seed: Optional[int] = None, monitored=None) -> "Resolver":
        return Resolver(seed=fallback_seed, script=script, monitored=monitored)

    # -- per-step bookkeeping -------------------------------------------------

    def begin_step(self, state: State) -> Dict[Location, Value]:
        """Reset draw bookkeeping; return this step's monitored injections."""
        self._occ = {}
        self._abs_cache = {}
        self._record = []
        injections: Dict[Location, Value] = {}
        if self.monitored is not None and self.step_index < len(self.monitored):
            injections.update(self.monitored[self.step_index])
        for e in self._script_entries():
            if e.kind == "monitored":
                injections[_parse_loc_label(e.label, state)] = e.value
        for loc, val in sorted(injections.items(), key=lambda kv: kv[0].key()):
            decl = state.sig.get(loc.fname)
            if decl is None or decl.kind != FunctionKind.MONITORED:
                raise ScriptViolation(
                    f"monitored injection targets non-monitored location {loc.show()}")
            self._record.append(
                ResEntry("monitored", loc.show(), f"mon:{loc.show()}", val))
        return injections

    def end_step(self) -> Tuple[ResEntry, ...]:
        record = tuple(self._record)
        self.step_index += 1
        self._record = []
        return record

    def set_agent(self, aid: str) -> None:
        """Scope subsequent draw keys to one agent (multi-agent steps)."""
        self._agent = aid

    def _script_entries(self) -> List[ResEntry]:
        if self.script is None or self.step_index >= len(self.script):
            return []
        return self.script[self.step_index]

    def _scripted_value(self, kind: str, key: str, label: str) -> Optional[Value]:
        base = _base_label(label)
        unscoped = base.split(":", 1)[1] if ":" in base else base
        by_label = None
        for e in self._script_entries():
            if e.kind != kind:
                continue
            if e.key == key:
                return e.value
            if e.label in (base, unscoped) and e.label:
                by_label = e.value
        return by_label

    # -- draws ----------------------------------------------------------------

    def _draw(self, kind: str, label: str, key: str, candidates: List[Value], pos) -> Value:
        if self.probe is not None:
            if key in self.probe:
                val = self.probe[key]
            else:
                raise _Fork(key, candidates)
        else:
            val = self._scripted_value(kind, key, label)
            if val is None:
                if self.seed is None:
                    raise ScriptViolation(
                        f"no scripted resolution for {key!r} and no fallback seed", pos)
                val = candidates[_prf(self.seed, f"{self.step_index}|{key}", len(candidates))]
        if val not in candidates:
            raise ScriptViolation(
                f"scripted value {show_value(val)} for {key!r} is not admissible", pos)
        self._record.append(ResEntry(kind, label, key, val))
        return val

    def choose(self, label: str, ctx: str, candidates: List[Value], pos) -> Value:
        scoped = f"{self._agent}:{label}" if self._agent else label
        base = f"choose:{scoped}|{ctx}"
        occ = self._occ.get(base, 0)
        self._occ[base] = occ + 1
        return self._draw("choose", scoped, f"{base}#{occ}", candidates, pos)

    def abstract(self, fname: str, args: Tuple[Value, ...], codomain: Optional[SetV],
                 arity: int, pos) -> Value:
        label = Location(fname, args).show()
        scoped = f"{self._agent}:{label}" if self._agent else label
        key = f"abs:{scoped}"
        if key in self._abs_cache:
            return self._abs_cache[key]
        if codomain is None:
            if arity == 0:
                codomain = BOOLS  # a bare abstract condition is true or false
            elif self.probe is not None:
                raise UnboundedAbstract(
                    f"abstract function {fname!r} has no codomain hint", pos)
            else:
                codomain = BOOLS
        candidates = sorted(codomain.elems, key=value_key)
        if not candidates:
            raise UnboundedAbstract(f"abstract function {fname!r} has empty codomain", pos)
        val = self._draw("abstract", scoped, key, candidates, pos)
        self._abs_cache[key] = val
        return val

    def schedule(self, candidates: List[str], pos=None) -> str:
        key = "sched"
        vals = [SymV(a) for a in candidates]
        picked = self._draw("schedule", "sched", key, vals, pos)
        return picked.name


def _parse_loc_label(label: str, state: State) -> Location:
    """Inverse of Location.show() for monitored script entries."""
    from .parser import parse_term

    t = parse_term(label)
    if isinstance(t, Var):
        return Location(t.name, ())
    if isinstance(t, App):
        args = []
        for a in t.args:
            if not isinstance(a, Lit):
                raise ScriptViolation(f"monitored location {label!r} must use literal arguments")
            args.append(a.value)
        return Location(t.fname, tuple(args))
    raise ScriptViolation(f"cannot parse monitored location {label!r}")


# ---------------------------------------------------------------------------
# Term evaluation


def eval_term(t: Term, state: State, env: Optional[Env] = None,
              resolver: Optional[Resolver] = None) -> Value:
    env = env or Env.empty()
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, Var):
        return env.get(t.name, t.pos)
    if isinstance(t, App):
        decl = state.sig.get(t.fname)
        args = tuple(eval_term(a, state, env, resolver) for a in t.args)
        if decl is not None:
            if decl.arity != len(args):
                raise ArityMismatch(
                    f"{t.fname!r} has arity {decl.arity}, got {len(args)}", t.pos)
            if decl.kind == FunctionKind.STATIC:
                return state.static_value(Location(t.fname, args))
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


def _guard_value(guard: Term, state: State, env: Env, resolver) -> bool:
    v = eval_term(guard, state, env, resolver)
    if not isinstance(v, BoolV):
        raise GuardNotBoolean(
            f"guard {pp_term(guard)} evaluated to {show_value(v)}", guard.pos)
    return v.b


# ---------------------------------------------------------------------------
# Capture-avoiding substitution for rule calls


def free_vars(t: Term) -> set:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, App):
        out: set = set()
        for a in t.args:
            out |= free_vars(a)
        return out
    return set()


def _subst_term(t: Term, mapping: Dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, App):
        return App(t.fname, tuple(_subst_term(a, mapping) for a in t.args), t.pos)
    return t


def _fresh(base: str, avoid: set) -> str:
    k = 1
    while f"{base}_{k}" in avoid:
        k += 1
    return f"{base}_{k}"


def _subst_binder(var: str, mapping: Dict[str, Term]):
    """Narrow a substitution under a binder, renaming on capture."""
    inner = {k: v for k, v in mapping.items() if k != var}
    captured = any(var in free_vars(v) for v in inner.values())
    if not captured:
        return var, inner, None
    avoid = set(inner)
    for v in inner.values():
        avoid |= free_vars(v)
    new = _fresh(var, avoid | {var})
    return new, inner, Var(new)


def _subst_rule(op: RuleExpr, mapping: Dict[str, Term], suffix: str) -> RuleExpr:
    if isinstance(op, Assign):
        lhs = App(op.lhs.fname,
                  tuple(_subst_term(a, mapping) for a in op.lhs.args), op.lhs.pos)
        return Assign(lhs, _subst_term(op.rhs, mapping), op.pos)
    if isinstance(op, Par):
        return Par(tuple(_subst_rule(c, mapping, suffix) for c in op.children), op.pos)
    if isinstance(op, If):
        return If(_subst_term(op.guard, mapping),
                  _subst_rule(op.then_op, mapping, suffix),
                  _subst_rule(op.else_op, mapping, suffix) if op.else_op else None,
                  op.pos)
    if isinstance(op, Let):
        binding = _subst_term(op.binding, mapping)
        var, inner, renamed = _subst_binder(op.var, mapping)
        if renamed is not None:
            inner = dict(inner)
            inner[op.var] = renamed
        return Let(var, binding, _subst_rule(op.body, inner, suffix), op.pos)
    if isinstance(op, Call):
        return Call(op.rname, tuple(_subst_term(a, mapping) for a in op.args), op.pos)
    if isinstance(op, (Forall, Choose)):
        domain = _subst_term(op.domain, mapping)
        var, inner, renamed = _subst_binder(op.var, mapping)
        if renamed is not None:
            inner = dict(inner)
            inner[op.var] = renamed
        guard = _subst_term(op.guard, inner) if op.guard is not None else None
        body = _subst_rule(op.body, inner, suffix)
        if isinstance(op, Forall):
            return Forall(var, domain, guard, body, op.pos)
        return Choose(var, domain, guard, body, op.pos, op.label + suffix)
    raise TypeError(f"not a rule expression: {op!r}")


def instantiate_call(machine: MachineDef, rname: str, args: Tuple[Term, ...]) -> RuleExpr:
    """Substitute argument terms for the formals of a declared rule."""
    decl = machine.declarations[rname]
    mapping = dict(zip(decl.formals, args))
    if mapping:
        blob = "|".join(f"{k}={pp_term(mapping[k])}" for k in sorted(mapping))
        suffix = "~" + hashlib.sha256(blob.encode()).hexdigest()[:8]
    else:
        suffix = ""
    return _subst_rule(decl.body, mapping, suffix)


# ---------------------------------------------------------------------------
# Update sets


def update_set(
    op: RuleExpr,
    state: State,
    env: Optional[Env] = None,
    resolver: Optional[Resolver] = None,
    machine: Optional[MachineDef] = None,
    max_call_depth: int = DEFAULT_CALL_DEPTH,
) -> UpdateSet:
    """Update set of one rule evaluation; does not fire it."""
    return _update_set(op, state, env or Env.empty(), resolver, machine,
                       max_call_depth, 0)


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
        return _update_set(op.body, state, env.bind(op.var, val), resolver,
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
            inner = env.bind(op.var, v)
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
            inner = env.bind(op.var, v)
            if op.guard is None or _guard_value(op.guard, state, inner, resolver):
                candidates.append(v)
        if not candidates:
            return UpdateSet.empty()  # idle gracefully when nothing satisfies
        if resolver is None:
            raise EvalError("choose needs a resolver", op.pos)
        label = op.label
        if not label:
            label = f"choose@{op.pos[0]}:{op.pos[1]}" if op.pos else "choose"
        picked = resolver.choose(label, env.ctx_digest(), candidates, op.pos)
        return _update_set(op.body, state, env.bind(op.var, picked), resolver,
                           machine, max_depth, depth)
    raise TypeError(f"not a rule expression: {op!r}")


# ---------------------------------------------------------------------------
# Steps


@dataclass(frozen=True)
class Progressed:
    next_state: State
    fired: UpdateSet
    resolutions: Tuple[ResEntry, ...]


@dataclass(frozen=True)
class Inconsistent:
    clashes: tuple
    attempted: UpdateSet
    resolutions: Tuple[ResEntry, ...]


@dataclass(frozen=True)
class Stalled:
    # draws made by the stalling evaluation; needed for exact replay
    resolutions: Tuple[ResEntry, ...] = ()


StepResult = Union[Progressed, Inconsistent, Stalled]


def _outcome(state: State, us: UpdateSet, resolutions: Tuple[ResEntry, ...],
             stutter: bool = False) -> StepResult:
    """What a step does with its update set: a clash is Inconsistent, an
    empty set Stalled unless the step may `stutter`, anything else fires."""
    clashes = conflicts(us)
    if clashes:
        return Inconsistent(tuple(clashes), us, resolutions)
    if len(us) == 0 and not stutter:
        return Stalled(resolutions)
    return Progressed(fire(state, us), us, resolutions)


def rule_body(machine: MachineDef, rule: str) -> RuleExpr:
    decl = machine.declarations.get(rule)
    if decl is None:
        raise EvalError(f"rule {rule!r} is not declared")
    if decl.formals:
        raise EvalError(f"rule {rule!r} takes parameters and cannot run standalone")
    return decl.body


SELF_LOC = Location("self", ())


def _agent_view(state: State, agent: str) -> State:
    """The state an agent's rule reads: the shared state with `self` bound.
    The anonymous agent "" has no `self`."""
    return state.with_content({SELF_LOC: SymV(agent)}) if agent else state


@dataclass(frozen=True)
class AgentSet:
    machine: MachineDef
    agents: Tuple[Tuple[str, str], ...]  # (agent id, rule name)

    @staticmethod
    def of(machine: MachineDef) -> "AgentSet":
        """A machine without agent lines is the anonymous agent "" looping main."""
        return AgentSet(machine, machine.agents or (("", machine.main),))


@dataclass(frozen=True)
class Synchronous:
    pass


@dataclass(frozen=True)
class Interleaving:
    pass


@dataclass(frozen=True)
class ScriptedOrder:
    order: Tuple[str, ...]


Scheduler = object  # Synchronous | Interleaving | ScriptedOrder


@dataclass
class MaStepResult:
    result: StepResult
    scheduled: Tuple[str, ...]
    # per-agent writers of each clashing location, filled on inconsistency
    provenance: Dict[Location, List[Tuple[str, Value]]] = field(default_factory=dict)


def _agent_update_set(machine, state, aid, rule, resolver, max_call_depth) -> UpdateSet:
    resolver.set_agent(aid)
    try:
        return _update_set(rule_body(machine, rule), _agent_view(state, aid),
                           Env.empty(), resolver, machine, max_call_depth, 0)
    finally:
        resolver.set_agent("")


def _schedule_of(aids: Tuple[str, ...]) -> Tuple[str, ...]:
    """The schedule a trace records: the anonymous agent "" is not named."""
    return () if aids == ("",) else aids


def _scheduled(res: StepResult, aids: Tuple[str, ...]) -> MaStepResult:
    """A stalled step schedules nobody."""
    return MaStepResult(res, () if isinstance(res, Stalled) else _schedule_of(aids))


def _can_progress(machine, state, aid, rule,
                  max_call_depth: int = DEFAULT_CALL_DEPTH, budget: int = 4096) -> bool:
    """True when some resolution of this agent's rule yields updates. An
    agent with more than `budget` resolutions is assumed schedulable."""
    try:
        return any(len(us) > 0 for us, _ in _probe(
            rule_body(machine, rule), state, machine, budget, max_call_depth, aid))
    except BranchBudgetExceeded:
        return True


def ma_step(
    machine: MachineDef,
    state: State,
    scheduler: Scheduler,
    resolver: Resolver,
    step_index: int = 0,
    max_call_depth: int = DEFAULT_CALL_DEPTH,
    agents: Optional[Tuple[Tuple[str, str], ...]] = None,
) -> MaStepResult:
    """One loop iteration: inject monitored input, evaluate the scheduled
    agents' rules against the same state, and decide the outcome."""
    if agents is None:
        agents = AgentSet.of(machine).agents
    injections = resolver.begin_step(state)
    eval_state = state.with_content(injections) if injections else state
    moved = eval_state.content != state.content

    # the lone anonymous agent needs no pick, so interleaving steps it
    # exactly as the synchronous scheduler does: no probe, no schedule draw
    lone = len(agents) == 1 and agents[0][0] == ""
    if isinstance(scheduler, Synchronous) or (lone and isinstance(scheduler, Interleaving)):
        sets = [_agent_update_set(machine, eval_state, aid, rule, resolver, max_call_depth)
                for aid, rule in agents]
        union = UpdateSet.empty()
        for us in sets:
            union = union.union(us)
        out = _scheduled(_outcome(eval_state, union, resolver.end_step(), moved),
                         tuple(aid for aid, _ in agents))
        if isinstance(out.result, Inconsistent):
            out.provenance = {
                loc: [(aid, u.val) for (aid, _), us in zip(agents, sets)
                      for u in us.updates if u.loc == loc]
                for loc, _ in out.result.clashes}
        return out

    if isinstance(scheduler, ScriptedOrder):
        if step_index >= len(scheduler.order):
            return _scheduled(_outcome(eval_state, UpdateSet.empty(),
                                       resolver.end_step()), ())
        aid = scheduler.order[step_index]
        by_id = dict(agents)
        if aid not in by_id:
            raise EvalError(f"scheduled agent {aid!r} does not exist")
        us = _agent_update_set(machine, eval_state, aid, by_id[aid], resolver,
                               max_call_depth)
        # an explicitly scripted agent may stutter with no updates
        return _scheduled(_outcome(eval_state, us, resolver.end_step(), stutter=True),
                          (aid,))

    if isinstance(scheduler, Interleaving):
        schedulable = [
            (aid, rule) for aid, rule in agents
            if _can_progress(machine, eval_state, aid, rule, max_call_depth)
        ]
        if not schedulable:
            # monitored input alone still moves the state
            return _scheduled(_outcome(eval_state, UpdateSet.empty(),
                                       resolver.end_step(), moved), ())
        aid = resolver.schedule([a for a, _ in schedulable])
        us = _agent_update_set(machine, eval_state, aid, dict(schedulable)[aid],
                               resolver, max_call_depth)
        # the picked agent's own draws may still give no updates; it stutters
        return _scheduled(_outcome(eval_state, us, resolver.end_step(), stutter=True),
                          (aid,))

    raise TypeError(f"unknown scheduler: {scheduler!r}")


def step(state: State, machine: MachineDef, rule: str, resolver: Resolver,
         max_call_depth: int = DEFAULT_CALL_DEPTH) -> StepResult:
    """One loop iteration of `rule`, run as the anonymous agent."""
    return ma_step(machine, state, Synchronous(), resolver, 0, max_call_depth,
                   (("", rule),)).result


# ---------------------------------------------------------------------------
# Runs and traces


@dataclass
class TraceStep:
    updates: UpdateSet
    resolutions: Tuple[ResEntry, ...]
    schedule: Tuple[str, ...] = ()


@dataclass
class Trace:
    machine: str
    provenance: str
    steps: List[TraceStep]
    states: List[State]  # pre-states plus, after a progressed step, the post-state
    outcome: str  # stalled | budget | inconsistent | violation
    clashes: tuple = ()
    # draws of the final, stalling evaluation (not a step of its own)
    tail_resolutions: Tuple[ResEntry, ...] = ()

    @property
    def final_state(self) -> State:
        return self.states[-1]

    def digests(self) -> List[str]:
        """The digest of each step's pre-state, then of the final state."""
        return [state_digest(s) for s in self.states[:len(self.steps)] + [self.final_state]]

    def as_script(self) -> List[Tuple[ResEntry, ...]]:
        script = [st.resolutions for st in self.steps]
        if self.tail_resolutions:
            script.append(self.tail_resolutions)
        return script


def initial_state(machine: MachineDef) -> State:
    """Evaluate init entries against the empty state and build the start state."""
    empty = State(machine.sig)
    content: Dict[Location, Value] = {}
    statics: Dict[Location, Value] = {}
    for lhs, rhs in machine.init:
        args = tuple(eval_term(a, empty) for a in lhs.args)
        val = eval_term(rhs, empty)
        loc = Location(lhs.fname, args)
        decl = machine.sig.get(lhs.fname)
        target = statics if decl.kind == FunctionKind.STATIC else content
        if loc in target and target[loc] != val:
            raise InconsistentUpdateSet([(loc, {target[loc], val})])
        target[loc] = val
    return State(machine.sig, content, statics)


def override_state(machine: MachineDef, state: State, entries) -> State:
    """Apply init-style (lhs, term) overrides to an existing state.

    Terms are evaluated against the empty state, exactly like machine init
    entries, so overrides stay order-independent.
    """
    empty = State(machine.sig)
    content = dict(state.content)
    statics = dict(state.statics)
    for lhs, rhs in entries:
        args = tuple(eval_term(a, empty) for a in lhs.args)
        val = eval_term(rhs, empty)
        loc = Location(lhs.fname, args)
        decl = machine.sig.get(lhs.fname)
        if decl is None:
            raise EvalError(f"override target {lhs.fname!r} is not declared", lhs.pos)
        if decl.kind == FunctionKind.STATIC:
            statics[loc] = val
        else:
            content[loc] = val
    return State(machine.sig, content, statics)


def ma_run(
    machine: MachineDef,
    scheduler: Scheduler,
    max_steps: int,
    resolver: Optional[Resolver] = None,
    start: Optional[State] = None,
    max_call_depth: int = DEFAULT_CALL_DEPTH,
    agents: Optional[Tuple[Tuple[str, str], ...]] = None,
) -> Trace:
    """Iterate `ma_step` from `start` until a step stalls, clashes, or
    `max_steps` have run, and record the trace."""
    resolver = resolver if resolver is not None else Resolver.seeded(0)
    if agents is None:
        agents = AgentSet.of(machine).agents
    state = start if start is not None else initial_state(machine)
    provenance = f"seed:{resolver.seed}" if resolver.script is None else "scripted"
    trace = Trace(machine.name, provenance, [], [state], "budget")
    for k in range(max_steps):
        out = ma_step(machine, state, scheduler, resolver, k, max_call_depth, agents)
        result = out.result
        if isinstance(result, Stalled):
            trace.outcome = "stalled"
            trace.tail_resolutions = result.resolutions
            return trace
        if isinstance(result, Inconsistent):
            trace.steps.append(TraceStep(result.attempted, result.resolutions, out.scheduled))
            trace.outcome = "inconsistent"
            trace.clashes = result.clashes
            return trace
        trace.steps.append(TraceStep(result.fired, result.resolutions, out.scheduled))
        state = result.next_state
        trace.states.append(state)
    return trace


def run(
    machine: MachineDef,
    max_steps: int,
    resolver: Optional[Resolver] = None,
    rule: Optional[str] = None,
    start: Optional[State] = None,
    max_call_depth: int = DEFAULT_CALL_DEPTH,
) -> Trace:
    """Run `rule` (default: main) as the anonymous agent."""
    return ma_run(machine, Synchronous(), max_steps, resolver, start, max_call_depth,
                  (("", rule or machine.main),))


def export_trace_jsonl(trace: Trace) -> str:
    """One JSON object per step, newline separated."""
    lines = []
    digests = trace.digests()
    for k, st in enumerate(trace.steps):
        obj = {
            "step": k,
            "updates": [
                {"f": u.loc.fname,
                 "args": [encode_value(a) for a in u.loc.args],
                 "val": encode_value(u.val)}
                for u in st.updates
            ],
            "resolutions": [e.to_json() for e in st.resolutions],
            "digest": digests[k],
        }
        if st.schedule:
            obj["schedule"] = list(st.schedule)
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def _probe(body: RuleExpr, state: State, machine: Optional[MachineDef], bound: int,
           max_call_depth: int, agent: str = ""):
    """Evaluate `body` once for every combination of choose/abstract draws,
    on `agent`'s view of `state`.

    Depth first: an evaluation that reaches an unresolved draw is dropped
    and re-run once per candidate with that draw fixed. Yields
    (update set, resolutions) per completed evaluation, and raises
    BranchBudgetExceeded once the combinations pass `bound`.
    """
    state = _agent_view(state, agent)
    pending: List[Dict[str, Value]] = [{}]
    leaves = 0
    while pending:
        script = pending.pop()
        resolver = Resolver(probe=script)
        resolver.set_agent(agent)
        resolver.begin_step(state)
        try:
            us = _update_set(body, state, Env.empty(), resolver, machine,
                             max_call_depth, 0)
        except _Fork as f:
            if leaves + len(pending) + len(f.candidates) > bound:
                raise BranchBudgetExceeded(bound) from None
            for v in f.candidates:
                child = dict(script)
                child[f.key] = v
                pending.append(child)
            continue
        leaves += 1
        yield us, resolver.end_step()


def enumerate_update_sets(
    op: RuleExpr,
    state: State,
    machine: Optional[MachineDef] = None,
    bound: int = 10_000,
    max_call_depth: int = DEFAULT_CALL_DEPTH,
) -> List[UpdateSet]:
    """All distinct update sets one rule can produce in one state."""
    return sorted({us for us, _ in _probe(op, state, machine, bound, max_call_depth)},
                  key=repr)


def enumerate_steps(
    state: State,
    machine: MachineDef,
    rule: str,
    bound: int = 10_000,
    max_call_depth: int = DEFAULT_CALL_DEPTH,
    agent: str = "",
) -> List[StepResult]:
    """All step outcomes over every choose/abstract resolution combination.

    With an `agent`, the rule reads that agent's view of `state` and
    successors fire on `state` itself. Outcomes come from `_outcome`, once
    per distinct update set (per clash set when inconsistent), in that
    order, each with the resolutions of its first witness. Raises
    BranchBudgetExceeded once the number of combinations passes `bound`.
    """
    results: Dict[tuple, StepResult] = {}
    for us, resolutions in _probe(rule_body(machine, rule), state, machine, bound,
                                  max_call_depth, agent):
        clashes = conflicts(us)
        if clashes:
            key = (1, tuple((loc.key(), tuple(sorted(map(value_key, vals))))
                            for loc, vals in clashes))
        else:
            key = (0, tuple((u.loc.key(), value_key(u.val)) for u in us))
        if key not in results:
            results[key] = _outcome(state, us, resolutions)
    return [results[k] for k in sorted(results)]
