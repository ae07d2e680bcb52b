"""Term evaluation and update-set semantics for the seven rule constructs.

One step evaluates a rule against a state and collects an update set:
assignment contributes a single (location, value) pair; par unions its
children's sets; if selects a branch by its boolean guard; let binds a
value; a rule call substitutes argument terms for formals (by name, so
arguments are evaluated at each use); forall unions the body's set over
every range element satisfying the guard; choose picks one such element
through the resolver. What a step does with its update set is decided in
one place, `_outcome`: an empty set is Stalled (unless the step may
stutter), a clash is Inconsistent, and anything else is a `Move`, the set
checked once and split into writes and clears. A step fires its move
into Progressed; a search fires a move only where it leads to a state
not seen before.

Terms and rules are compiled into Python closures (Feeley & Lapalme,
"Using closures for code generation", 1987). A node is compiled on its
first evaluation against a signature, and the node itself holds the
closure together with that signature, so closures live and die with the
tree and no table outlives a machine. A rule call site instantiates its
callee once per machine and keeps that compiled instantiation, so the
substitution, and the choose labels it names, happen once per site and
not once per evaluation. Constant subterms are evaluated once (Jones,
Gomard & Sestoft, "Partial Evaluation", 1993): a background operation
applied to literals or to such applications keeps the value of its first
evaluation in its closure, never an error, so a range `{0 .. 3}` or a
substituted argument `60 - 1 - 1` is built once per tree, and only if it
is reached. Background operations are static, so this changes no value.
A built-in operation runs inside its application's closure, a
superoperator (Proebsting, "Optimizing an ANSI C interpreter with
superoperators", POPL 1995): one frame per `+`, `<`, `=` or `and`, where
calling the implementation took two or three. That holds while the name
keeps the implementation `background` registered for it; a name
registered anew takes the generic path, and a tree compiled earlier
keeps the operation it bound. A forall or choose binds its variable into
one env dict per evaluation, not one per element. An int result, a read
location or an update that is already interned is read from its class's
table in C (`values.Interned`), and its constructor runs only on a miss.
`eval_term`, `update_set` and `_probe` run the closures; the tree walk
they replaced is the test oracle.

Every step is a step of an agent set over one shared state, taken by
`ma_step`. A scheduler only picks who steps and whether the step may
stutter: synchronous picks every agent, interleaving one schedulable
agent through the resolver, a scripted order the agent it names; `ma_step`
evaluates their rules against the same pre-state, unions the update sets
and calls `_outcome` once. Each agent loops its own rule with the implicit
`self` input bound to its id. A machine without agent lines is the
anonymous agent "": it has no `self`, its draw keys are unscoped and its
steps name no schedule; with nobody to pick among, interleaving steps it
as synchronous does. `step` and `run` are `ma_step` and `ma_run` for that
agent, so `run`, `explore` and refinement agree on what a plain machine
does, and a counterexample `explore` exports for it replays with `run`.

Nondeterminism is funneled through `Resolver`: seeded draws are a pure
function of (seed, step, resolution key), and scripted draws replay
recorded or hand-written choices. Monitored input is scripted too: a
step's `monitored` entries name the locations it injects, and an exported
trace records them in the same form. One enumerator, `_probe`, evaluates an
agent's rule to its end once per combination of draws, replaying a stack
of choice points; `enumerate_moves`, `enumerate_update_sets` and the
interleaving scheduler's progress check all consume it. A probe's
resolver has no script, so `begin_step` only resets its draws, and
`enumerate_update_sets` sorts only when it finds two or more sets: one
evaluation costs little more than the rule does. `enumerate_moves` keys
its outcomes on their update sets (clash sets when inconsistent) and
sorts two or more by the key each update and location keeps once built;
`enumerate_steps` is those outcomes with each move fired.
Given a `reads` dict, the rule reads a view whose content records every
location read; `multiagent`'s outcome memo keys on those locations.
Resolution keys combine the choose label with a digest of the lexical
bindings in scope, not the visit order, which keeps par children
order-independent.

A step's outcome is its one record: `Progressed` or `Inconsistent`, with
the step's `updates`, draws and `schedule`. `ma_step` returns it, and a
`Trace` is a start state and its steps' outcomes; its states are read off
them, and `Trace.digests` hashes them only when compared or exported. A
search keeps the path to each state as parent links (`Links`), and
`trace_of` turns the path to a violation or a failing run into a `Trace`.
"""
from __future__ import annotations

import functools
import hashlib
import json
import sys
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    ArityMismatch,
    BranchBudgetExceeded,
    CallDepthExceeded,
    EvalError,
    GuardNotBoolean,
    InconsistentUpdateSet,
    ManifestError,
    RangeNotSet,
    ScriptViolation,
    UnboundedAbstract,
    UnboundVariable,
)
from .background import FUSE, background_op, is_background
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
    _subterms,
    abstract_reads,
    parse_term,
    pp_term,
)
from .state import (
    FunctionKind,
    Location,
    Signature,
    State,
    Update,
    UpdateSet,
    applied,
    checked,
    state_digest,
)
from .values import (
    FALSE,
    TRUE,
    UNDEF,
    SetV,
    SymV,
    Value,
    decode_value,
    show_value,
    value_key,
    value_text,
)

# deep rule-call chains recurse through the evaluator; the call-depth
# bound is what limits them, and `update_set` reports a body nested too
# deeply for the interpreter's stack below that bound
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))

# nested rule calls one evaluation may make; read by each call as it runs
MAX_CALL_DEPTH = 1000

BOOLS = SetV(frozenset({TRUE, FALSE}))


# ---------------------------------------------------------------------------
# Bindings: a dict from let/forall/choose variables and formals to values


def _ctx_digest(bindings: Dict[str, Value]) -> str:
    if not bindings:
        return ""
    blob = "|".join(f"{k}={show_value(bindings[k])}" for k in sorted(bindings))
    return hashlib.sha256(blob.encode()).hexdigest()[:8]


# ---------------------------------------------------------------------------
# Resolvers


@dataclass(frozen=True, slots=True)
class ResEntry:
    """One recorded resolution: a choose pick, abstract draw, monitored
    injection, or scheduling decision."""

    kind: str  # choose | abstract | monitored | schedule
    label: str
    key: str
    value: Value

    @staticmethod
    def from_json(obj: dict) -> "ResEntry":
        return ResEntry(obj["kind"], obj["label"], obj.get("key", ""),
                        decode_value(obj["value"]))


def _prf(seed: int, key: str, n: int) -> int:
    h = hashlib.sha256(f"{seed}|{key}".encode()).digest()
    return int.from_bytes(h[:8], "big") % n


def _base_label(label: str) -> str:
    return label.split("~", 1)[0]


class Resolver:
    """Pluggable source of nondeterministic decisions.

    Seeded mode draws as a pure function of (seed, step, resolution key).
    Scripted mode consumes per-step tagged entries, optionally falling back
    to a seed for anything unscripted; `_Replay` enumerates for `_probe`.
    """

    def __init__(self, *, seed: Optional[int] = None,
                 script: Optional[Sequence[Sequence[ResEntry]]] = None) -> None:
        self.seed = seed
        self.script = [list(s) for s in script] if script is not None else None
        self.step_index = 0
        self._occ: Dict[str, int] = {}
        self._abs_cache: Dict[str, Value] = {}
        self._record: List[ResEntry] = []
        self._agent: str = ""

    @staticmethod
    def seeded(seed: int) -> "Resolver":
        return Resolver(seed=seed)

    @staticmethod
    def scripted(script, fallback_seed: Optional[int] = None) -> "Resolver":
        return Resolver(seed=fallback_seed, script=script)

    # -- per-step bookkeeping -------------------------------------------------

    def begin_step(self, state: State) -> Dict[Location, Value]:
        """Reset draw bookkeeping; return what the step's `monitored` entries inject."""
        self._occ, self._abs_cache, self._record = {}, {}, []
        if self.script is None:  # every probe and every seeded run
            return {}
        injections = {read_location(e.label, state.sig): e.value
                      for e in self._script_entries() if e.kind == "monitored"}
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
        """The entry for the draw's key, else the last for its agent-scoped
        label, else the last for its unscoped one, wherever each stands."""
        base = _base_label(label)
        unscoped = base.split(":", 1)[1] if ":" in base else base
        scoped_value = unscoped_value = None
        for e in self._script_entries():
            if e.kind != kind:
                continue
            if e.key == key:
                return e.value
            if not e.label:
                continue
            if e.label == base:
                scoped_value = e.value
            elif e.label == unscoped:
                unscoped_value = e.value
        return unscoped_value if scoped_value is None else scoped_value

    # -- draws ----------------------------------------------------------------

    def _draw(self, kind: str, label: str, key: str, candidates: List[Value], pos) -> Value:
        # without a script (every seeded run and every probe) nothing is scripted
        val = None if self.script is None else self._scripted_value(kind, key, label)
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
        if codomain is None and arity:
            raise UnboundedAbstract(f"abstract function {fname!r} has no codomain hint", pos)
        label = Location(fname, args).show()
        scoped = f"{self._agent}:{label}" if self._agent else label
        key = f"abs:{scoped}"
        if key in self._abs_cache:
            return self._abs_cache[key]
        # a constant abstract function without a codomain hint is true or false
        candidates = sorted((BOOLS if codomain is None else codomain).elems, key=value_key)
        if not candidates:
            raise UnboundedAbstract(f"abstract function {fname!r} has empty codomain", pos)
        val = self._draw("abstract", scoped, key, candidates, pos)
        self._abs_cache[key] = val
        return val

    def schedule(self, candidates: List[str], pos=None) -> str:
        vals = [SymV._table.get((a,)) or SymV(a) for a in candidates]  # read in C if interned
        return self._draw("schedule", "sched", "sched", vals, pos).name


# ---------------------------------------------------------------------------
# Capture-avoiding substitution for rule calls


def free_vars(t: Term) -> set:
    return {u.name for u in _subterms(t) if isinstance(u, Var)}


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
    """Narrow a substitution under a binder: the binder's name, renamed on
    capture, and the substitution for its body."""
    inner = {k: v for k, v in mapping.items() if k != var}
    if not any(var in free_vars(v) for v in inner.values()):
        return var, inner
    avoid = set(inner) | {var}
    for v in inner.values():
        avoid |= free_vars(v)
    new = _fresh(var, avoid)
    inner[var] = Var(new)
    return new, inner


def _subst_rule(op: RuleExpr, mapping: Dict[str, Term], suffix: Callable[[], str]) -> RuleExpr:
    if isinstance(op, Assign):
        return Assign(_subst_term(op.lhs, mapping), _subst_term(op.rhs, mapping), op.pos)
    if isinstance(op, Par):
        return Par(tuple(_subst_rule(c, mapping, suffix) for c in op.children), op.pos)
    if isinstance(op, If):
        return If(_subst_term(op.guard, mapping),
                  _subst_rule(op.then_op, mapping, suffix),
                  _subst_rule(op.else_op, mapping, suffix) if op.else_op else None,
                  op.pos)
    if isinstance(op, Let):
        var, inner = _subst_binder(op.var, mapping)
        return Let(var, _subst_term(op.binding, mapping), _subst_rule(op.body, inner, suffix),
                   op.pos)
    if isinstance(op, Call):
        return Call(op.rname, tuple(_subst_term(a, mapping) for a in op.args), op.pos)
    if isinstance(op, (Forall, Choose)):
        domain = _subst_term(op.domain, mapping)
        var, inner = _subst_binder(op.var, mapping)
        guard = _subst_term(op.guard, inner) if op.guard is not None else None
        body = _subst_rule(op.body, inner, suffix)
        if isinstance(op, Forall):
            return Forall(var, domain, guard, body, op.pos)
        return Choose(var, domain, guard, body, op.pos, op.label + suffix())
    raise TypeError(f"not a rule expression: {op!r}")


def instantiate_call(machine: MachineDef, rname: str, args: Tuple[Term, ...]) -> RuleExpr:
    """Substitute argument terms for the formals of a declared rule. The
    choose-label suffix hashes the printed arguments, so it is computed
    only if the body holds a `choose`."""
    decl = machine.declarations[rname]
    mapping = dict(zip(decl.formals, args))

    @functools.cache
    def suffix() -> str:
        blob = "|".join(f"{k}={pp_term(mapping[k])}" for k in sorted(mapping))
        return "~" + hashlib.sha256(blob.encode()).hexdigest()[:8] if mapping else ""
    return _subst_rule(decl.body, mapping, suffix)


# ---------------------------------------------------------------------------
# Evaluation: each node is compiled once into a closure
#
# A term compiles to `fn(state, env, resolver) -> Value` and a rule to
# `fn(state, env, resolver, machine, depth, out)`, which adds the rule's
# updates to the set `out`; `env` is a dict of the lexical bindings, which
# no closure mutates or keeps past its call (a forall or choose rebinds its
# variable in a copy of its own), and `depth` counts the rule calls above.
# The compiler binds what the signature fixes: a function's declaration, a
# background operation, a location whose arguments are literals, a choose
# label. Every check the tree walk in `tests/interp_oracle.py` makes while
# evaluating (arity, unknown function, unbound variable, guard, range, call
# depth, missing resolver or machine) stays in the closure, and raises the
# same error after the same evaluations.


def _compiled(node, sig: Signature, compile_node):
    """The closure of `node` against `sig`, compiled on first use and kept
    on the node with `sig`, so it lives exactly as long as the tree."""
    held = getattr(node, "_compiled", None)
    if held is not None and held[0] is sig:
        return held[1]
    fn = compile_node(node, sig)
    if isinstance(node, (Term, RuleExpr)):
        node._compiled = (sig, fn)
    return fn


def _term(t: Term, sig: Signature):
    return _compiled(t, sig, _compile_term)


def _rule(op: RuleExpr, sig: Signature):
    return _compiled(op, sig, _compile_rule)


def _values(args):
    """Closure building the tuple of `args`' values, left to right."""
    if not args:
        return lambda s, e, r: ()
    if len(args) == 1:
        a0, = args
        return lambda s, e, r: (a0(s, e, r),)
    if len(args) == 2:
        a0, a1 = args
        return lambda s, e, r: (a0(s, e, r), a1(s, e, r))
    return lambda s, e, r: tuple([a(s, e, r) for a in args])


def _failing(args, error):
    """Closure evaluating `args`, then raising `error()`."""
    values = _values(args)

    def fail(s, e, r):
        values(s, e, r)
        raise error()
    return fail


def _once(fn):
    """A constant term's closure: `fn`'s value, kept from its first
    evaluation; an error is raised again, never kept."""
    value = None

    def once(s, e, r):
        nonlocal value
        if value is None:
            value = fn(s, e, r)
        return value
    once.constant = True
    return once


def _compile_term(t: Term, sig: Signature):
    if isinstance(t, Lit):
        value = t.value
        return lambda s, e, r: value
    if isinstance(t, Var):
        name, pos = t.name, t.pos

        def var(s, e, r):
            try:
                return e[name]
            except KeyError:
                raise UnboundVariable(f"unbound variable {name!r}", pos) from None
        return var
    if isinstance(t, App):
        return _compile_app(t, sig)

    def not_a_term(s, e, r):
        raise TypeError(f"not a term: {t!r}")
    return not_a_term


def _compile_app(t: App, sig: Signature):
    fname, pos = t.fname, t.pos
    args = tuple(_term(a, sig) for a in t.args)
    n = len(args)
    decl = sig.get(fname)
    if decl is None:
        if not is_background(fname):
            return _failing(args, lambda: EvalError(f"unknown function {fname!r}", pos))
        arity, op = background_op(fname)
        if arity is not None and arity != n:
            return _failing(args, lambda: ArityMismatch(
                f"{fname!r} expects {arity} argument(s), got {n}"))
        if op in FUSE:  # by identity: a name registered anew is not fused
            fn = FUSE[op](*args)
        else:
            values = _values(args)
            fn = lambda s, e, r: op(*values(s, e, r))
        # an operation of constants is a constant: read off the children's
        # closures, so a deep substituted argument costs no walk
        constant = all(isinstance(a, Lit) or hasattr(f, "constant")
                       for a, f in zip(t.args, args))
        return _once(fn) if constant else fn
    if decl.arity != n:
        return _failing(args, lambda: ArityMismatch(
            f"{fname!r} has arity {decl.arity}, got {n}", pos))
    values = _values(args)
    if decl.kind == FunctionKind.ABSTRACT:
        codomain, arity = decl.codomain, decl.arity

        def abstract(s, e, r):
            vals = values(s, e, r)
            if r is None:
                raise EvalError(f"abstract function {fname!r} needs a resolver", pos)
            return r.abstract(fname, vals, codomain, arity, pos)
        return abstract
    static = decl.kind == FunctionKind.STATIC
    if all(isinstance(a, Lit) for a in t.args):
        loc = Location(fname, tuple(a.value for a in t.args))
        if static:
            return lambda s, e, r: s.statics.get(loc, UNDEF)
        return lambda s, e, r: s.content.get(loc, UNDEF)
    # the location read in C when it is interned, built only on a miss
    locs = Location._table.get
    if static:
        return lambda s, e, r: s.statics.get(
            locs(k := (fname, values(s, e, r))) or Location(*k), UNDEF)
    if n == 1:
        a0, = args
        return lambda s, e, r: s.content.get(
            locs(k := (fname, (a0(s, e, r),))) or Location(*k), UNDEF)
    return lambda s, e, r: s.content.get(
        locs(k := (fname, values(s, e, r))) or Location(*k), UNDEF)


def _not_boolean(guard: Term, v: Value) -> GuardNotBoolean:
    return GuardNotBoolean(f"guard {pp_term(guard)} evaluated to {show_value(v)}",
                           guard.pos)


def _compile_rule(op: RuleExpr, sig: Signature):
    if isinstance(op, Assign):
        return _compile_assign(op, sig)
    if isinstance(op, Par):
        children = tuple(_rule(c, sig) for c in op.children)
        if not children:
            return lambda s, e, r, machine, d, out: None
        if len(children) == 1:
            return children[0]

        def par(s, e, r, machine, d, out):
            for child in children:
                child(s, e, r, machine, d, out)
        return par
    if isinstance(op, If):
        return _compile_if(op, sig)
    if isinstance(op, Let):
        binding, body, var = _term(op.binding, sig), _rule(op.body, sig), op.var

        def let(s, e, r, machine, d, out):
            inner = dict(e)
            inner[var] = binding(s, e, r)
            body(s, inner, r, machine, d, out)
        return let
    if isinstance(op, Call):
        return _compile_call(op, sig)
    if isinstance(op, (Forall, Choose)):
        return _compile_binder(op, sig)

    def not_a_rule(s, e, r, machine, d, out):
        raise TypeError(f"not a rule expression: {op!r}")
    return not_a_rule


def _compile_assign(op: Assign, sig: Signature):
    fname, rhs = op.lhs.fname, _term(op.rhs, sig)
    updates = Update._table.get  # as `locs` in `_compile_app`
    if all(isinstance(a, Lit) for a in op.lhs.args):
        loc = Location(fname, tuple(a.value for a in op.lhs.args))
        return lambda s, e, r, machine, d, out: out.add(
            updates(k := (loc, rhs(s, e, r))) or Update(*k))
    values = _values(tuple(_term(a, sig) for a in op.lhs.args))
    locs = Location._table.get

    def assign(s, e, r, machine, d, out):
        loc = locs(k := (fname, values(s, e, r))) or Location(*k)
        out.add(updates(k := (loc, rhs(s, e, r))) or Update(*k))
    return assign


def _compile_if(op: If, sig: Signature):
    guard_term = op.guard
    guard, then_op = _term(guard_term, sig), _rule(op.then_op, sig)
    else_op = _rule(op.else_op, sig) if op.else_op is not None else None

    def if_(s, e, r, machine, d, out):
        v = guard(s, e, r)
        if v is TRUE:  # TRUE and FALSE are the only BoolVs
            then_op(s, e, r, machine, d, out)
        elif v is not FALSE:
            raise _not_boolean(guard_term, v)
        elif else_op is not None:
            else_op(s, e, r, machine, d, out)
    return if_


def _compile_call(op: Call, sig: Signature):
    rname, args, pos = op.rname, op.args, op.pos
    # a weak reference to the machine last seen here, and its compiled body:
    # the machine holds this closure, and a strong reference would make its
    # tree a cycle, freed only by a full collection of the garbage collector
    site = [None, None]

    def call(s, e, r, machine, d, out):
        if machine is None:
            raise EvalError(f"rule call {rname!r} outside a machine context", pos)
        if d >= MAX_CALL_DEPTH:
            raise CallDepthExceeded(f"call depth {MAX_CALL_DEPTH} exceeded at {rname!r}", pos)
        if site[0] is None or site[0]() is not machine:
            site[1] = _rule(instantiate_call(machine, rname, args), sig)
            site[0] = weakref.ref(machine)
        site[1](s, e, r, machine, d + 1, out)
    return call


def _compile_binder(op, sig: Signature):
    """forall and choose: bind `op.var` to each element of the range that
    satisfies the guard; forall runs the body for each, choose for the one
    element the resolver picks. Each evaluation binds into one env dict of
    its own, rebound per element."""
    var, pos, guard_term = op.var, op.pos, op.guard
    domain, body = _term(op.domain, sig), _rule(op.body, sig)
    guard = _term(guard_term, sig) if guard_term is not None else None
    what = "forall" if isinstance(op, Forall) else "choose"

    def range_of(s, e, r):
        dom = domain(s, e, r)
        if not isinstance(dom, SetV):
            raise RangeNotSet(f"{what} range evaluated to {show_value(dom)}", pos)
        return dom

    if what == "forall":
        def forall(s, e, r, machine, d, out):
            inner = dict(e)
            for v in range_of(s, e, r):  # canonical order
                inner[var] = v
                if guard is not None:
                    g = guard(s, inner, r)
                    if g is not TRUE:
                        if g is FALSE:
                            continue
                        raise _not_boolean(guard_term, g)
                body(s, inner, r, machine, d, out)
        return forall

    label = op.label or (f"choose@{pos[0]}:{pos[1]}" if pos else "choose")

    def choose(s, e, r, machine, d, out):
        inner = dict(e)
        if guard is None:
            candidates = list(range_of(s, e, r))
        else:
            candidates = []
            for v in range_of(s, e, r):
                inner[var] = v
                g = guard(s, inner, r)
                if g is TRUE:
                    candidates.append(v)
                elif g is not FALSE:
                    raise _not_boolean(guard_term, g)
        if not candidates:
            return  # idle gracefully when nothing satisfies
        if r is None:
            raise EvalError("choose needs a resolver", pos)
        inner[var] = r.choose(label, _ctx_digest(e), candidates, pos)
        body(s, inner, r, machine, d, out)
    return choose


def eval_term(t: Term, state: State, env: Optional[Dict[str, Value]] = None,
              resolver: Optional[Resolver] = None) -> Value:
    """The value of `t` in `state` under the bindings `env`."""
    return _term(t, state.sig)(state, env or {}, resolver)


def update_set(op: RuleExpr, state: State, env: Optional[Dict[str, Value]] = None,
               resolver: Optional[Resolver] = None,
               machine: Optional[MachineDef] = None) -> UpdateSet:
    """Update set of one rule evaluation; does not fire it."""
    out: set = set()
    try:
        _rule(op, state.sig)(state, env or {}, resolver, machine, 0, out)
    except RecursionError:
        raise CallDepthExceeded(
            f"evaluation nested too deeply: the stack ran out within call depth "
            f"{MAX_CALL_DEPTH}") from None
    return UpdateSet(frozenset(out))


# ---------------------------------------------------------------------------
# Steps


# treated as immutable like the other step records, but not frozen: one is
# built for every step, and a frozen dataclass is slower to build
@dataclass(slots=True)
class Progressed:
    next_state: State
    updates: UpdateSet
    resolutions: Tuple[ResEntry, ...]
    schedule: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Inconsistent:
    clashes: tuple
    updates: UpdateSet
    resolutions: Tuple[ResEntry, ...]
    schedule: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Stalled:
    # draws made by the stalling evaluation; needed for exact replay
    resolutions: Tuple[ResEntry, ...] = ()


StepResult = Union[Progressed, Inconsistent, Stalled]


@dataclass(slots=True, eq=False)
class Move:
    """A step that progresses, before it is fired: its update set, checked
    once for consistency and controlled kinds and split by `state.checked`
    into what it writes and what it clears, which fire it on any state of
    the same signature. Not frozen, for the reason Progressed is not."""

    updates: UpdateSet
    resolutions: Tuple[ResEntry, ...]
    schedule: Tuple[str, ...]
    writes: Dict[Location, Value]
    clears: Tuple[Location, ...]

    def to(self, next_state: State) -> Progressed:
        """The step record of this move into `next_state`."""
        return Progressed(next_state, self.updates, self.resolutions, self.schedule)

    def fire(self, state: State) -> Progressed:
        return self.to(state.derive(applied(state.content, self.writes, self.clears)))


# what an update set does, decided once by `_outcome`
Outcome = Union[Move, Inconsistent, Stalled]


def _outcome(sig: Signature, us: UpdateSet, resolutions: Tuple[ResEntry, ...],
             aids: Tuple[str, ...] = (), stutter: bool = False) -> Outcome:
    """What a step of the agents `aids` does with its update set: an empty
    set is Stalled (scheduling nobody) unless the step may `stutter`, a
    clash is Inconsistent, anything else is a Move, whose locations
    `checked` has found controlled. The schedule does not name the
    anonymous agent ""."""
    schedule = () if aids == ("",) else aids
    if len(us) == 0 and not stutter:
        return Stalled(resolutions)
    try:
        writes, clears = checked(sig, us)
    except InconsistentUpdateSet as e:
        return Inconsistent(tuple(e.clashes), us, resolutions, schedule)
    return Move(us, resolutions, schedule, writes, clears)


def _fired(state: State, res: Outcome) -> StepResult:
    """`res` as a step outcome from `state`: a Move fired, anything else as it is."""
    return res.fire(state) if isinstance(res, Move) else res


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
    return (state.derive({**state.content, SELF_LOC: SymV._table.get((agent,)) or SymV(agent)})
            if agent else state)


def agents_of(machine: MachineDef) -> Tuple[Tuple[str, str], ...]:
    """(agent id, rule name) of each agent; a machine without agent lines
    is the anonymous agent "" looping main."""
    return machine.agents or (("", machine.main),)


# resolutions the interleaving scheduler tries per agent before it assumes
# the agent can move
PROGRESS_BUDGET = 4096


def _can_progress(machine, state, aid, rule) -> bool:
    """True when some resolution of this agent's rule yields updates. An
    agent with more than PROGRESS_BUDGET resolutions is assumed schedulable."""
    try:
        return any(len(us) > 0 for us, _ in _probe(
            rule_body(machine, rule), state, machine, PROGRESS_BUDGET, aid))
    except BranchBudgetExceeded:
        return True


# A scheduler only picks who steps: `pick(machine, state, agents, resolver,
# moved)` is (the agents that step, whether the step may stutter), where
# `moved` says whether the step's monitored input changed the state.
@dataclass(frozen=True)
class Synchronous:
    def pick(self, machine, state, agents, resolver, moved):
        return agents, moved


@dataclass(frozen=True)
class Interleaving:
    def pick(self, machine, state, agents, resolver, moved):
        if len(agents) == 1 and agents[0][0] == "":
            return agents, moved  # the lone anonymous agent: no probe, no draw
        schedulable = {aid: rule for aid, rule in agents
                       if _can_progress(machine, state, aid, rule)}
        if not schedulable:
            return (), moved  # monitored input alone still moves the state
        aid = resolver.schedule(list(schedulable))
        # the picked agent's own draws may still give no updates; it stutters
        return ((aid, schedulable[aid]),), True


@dataclass(frozen=True)
class ScriptedOrder:
    """Step k runs agent `order[k]`, which may stutter. The order names an
    existing agent for every step run: `scenario.run_scenario` checks both
    before the run starts."""

    order: Tuple[str, ...]

    def pick(self, machine, state, agents, resolver, moved):
        aid = self.order[resolver.step_index]
        return ((aid, dict(agents)[aid]),), True


def ma_step(machine: MachineDef, state: State,
            scheduler: Synchronous | Interleaving | ScriptedOrder, resolver: Resolver,
            agents: Optional[Tuple[Tuple[str, str], ...]] = None) -> StepResult:
    """One loop iteration: inject monitored input, let the scheduler pick
    who steps, evaluate their rules against the same state, and decide the
    outcome."""
    if agents is None:
        agents = agents_of(machine)
    injections = resolver.begin_step(state)
    eval_state = state.with_content(injections) if injections else state
    picked, stutter = scheduler.pick(machine, eval_state, agents, resolver,
                                     eval_state is not state
                                     and eval_state.content != state.content)
    us, aids = UpdateSet.empty(), ()
    for aid, rule in picked:
        resolver.set_agent(aid)
        try:
            part = update_set(rule_body(machine, rule), _agent_view(eval_state, aid),
                              None, resolver, machine)
        finally:
            resolver.set_agent("")
        us = us.union(part) if aids else part  # one agent: no union
        aids += (aid,)
    return _fired(eval_state, _outcome(eval_state.sig, us, resolver.end_step(), aids, stutter))


def step(state: State, machine: MachineDef, rule: str, resolver: Resolver) -> StepResult:
    """One loop iteration of `rule`, run as the anonymous agent."""
    return ma_step(machine, state, Synchronous(), resolver, (("", rule),))


# ---------------------------------------------------------------------------
# Runs and traces


@dataclass
class Trace:
    """A start state and the outcome of each step; only the last may be
    Inconsistent."""

    start: State
    steps: List[Union[Progressed, Inconsistent]]
    outcome: str  # stalled | budget | inconsistent | violation
    # draws of the final, stalling evaluation (not a step of its own)
    tail_resolutions: Tuple[ResEntry, ...] = ()

    @property
    def states(self) -> List[State]:
        """Each step's pre-state, then the post-state of a progressed last step."""
        return [self.start] + [st.next_state for st in self.steps
                               if isinstance(st, Progressed)]

    @property
    def final_state(self) -> State:
        return self.states[-1]

    @property
    def clashes(self) -> tuple:
        return self.steps[-1].clashes if self.outcome == "inconsistent" else ()

    def digests(self) -> List[str]:
        """The digest of each step's pre-state, then of the final state."""
        states = self.states
        return [state_digest(s) for s in states[:len(self.steps)] + [states[-1]]]

    def as_script(self) -> List[Tuple[ResEntry, ...]]:
        script = [st.resolutions for st in self.steps]
        if self.tail_resolutions:
            script.append(self.tail_resolutions)
        return script


# a search path: the outcomes that reached a state, last first, as nested
# (outcome, rest) pairs ending in None, so a state's links extend its parent's
Links = Optional[Tuple[Union[Progressed, Inconsistent], "Links"]]


def trace_of(start: State, links: Links, outcome: str) -> Trace:
    """The `Trace` of the search path `links` from `start`."""
    steps = []
    while links is not None:
        step, links = links
        steps.append(step)
    steps.reverse()
    return Trace(start, steps, outcome)


def _location(lhs: App, empty: State) -> Location:
    return Location(lhs.fname, tuple(eval_term(a, empty) for a in lhs.args))


def initial_state(machine: MachineDef, overrides: Sequence[Tuple[App, Term]] = ()) -> State:
    """The start state: the init entries, then the init-style (lhs, term)
    `overrides`, which win over init. Every term is evaluated against the
    empty state, so neither list depends on its order."""
    empty = State(machine.sig)
    content: Dict[Location, Value] = {}
    statics: Dict[Location, Value] = {}
    for k, (lhs, rhs) in enumerate((*machine.init, *overrides)):
        loc, val = _location(lhs, empty), eval_term(rhs, empty)
        decl = machine.sig.get(lhs.fname)
        if decl is None:  # the parser has checked every init target
            raise EvalError(f"override target {lhs.fname!r} is not declared", lhs.pos)
        target = statics if decl.kind == FunctionKind.STATIC else content
        if k < len(machine.init) and loc in target and target[loc] != val:
            raise InconsistentUpdateSet([(loc, {target[loc], val})])
        target[loc] = val
    return State(machine.sig, content, statics)


def read_override(text: str, machine: MachineDef, where: str) -> Tuple[App, Term]:
    """Read `<location> := <term>` into an override for `initial_state`.
    A target that is no location or an abstract function is an EvalError,
    which `parser.located` labels; a value that reads one names `where`."""
    lhs_text, rhs_text = text.split(":=", 1)
    lhs = parse_term(lhs_text.strip(), machine.sig)
    # an operator application such as `a + 1` is an App, not a location
    decl = machine.sig.get(lhs.fname) if isinstance(lhs, App) else None
    if decl is None:
        raise EvalError(f"override target {lhs_text.strip()!r} is not a location")
    if decl.kind == FunctionKind.ABSTRACT:
        # the resolver draws it at every read, so a start value would be ignored
        raise EvalError(f"init cannot set abstract function {lhs.fname!r}")
    return lhs, read_resolver_free(rhs_text.strip(), machine.sig, where)


def read_location(text: str, sig: Signature) -> Location:
    """The location a term such as `f(-1, {1, 2})` names, its arguments
    evaluated against the empty state; `Location.show` writes such terms."""
    t = parse_term(text.strip(), sig)
    if not isinstance(t, App):
        raise ScriptViolation(f"{text.strip()!r} is not a location")
    return _location(t, State(sig))


def read_resolver_free(text: str, sig: Signature, where: str) -> Term:
    """Parse a term that is evaluated without a resolver, such as a safety
    assertion or an observation; refuse one that reads an abstract
    function, naming `where` (say, a manifest line)."""
    t = parse_term(text, sig)
    for u in abstract_reads(t, sig):
        raise ManifestError(
            f"{where} reads abstract function {u.fname!r}, which needs a resolver")
    return t


def ma_run(machine: MachineDef, scheduler: Synchronous | Interleaving | ScriptedOrder,
           max_steps: int, resolver: Optional[Resolver] = None, start: Optional[State] = None,
           agents: Optional[Tuple[Tuple[str, str], ...]] = None) -> Trace:
    """Iterate `ma_step` from `start` until a step stalls, clashes, or
    `max_steps` have run, and record the trace."""
    resolver = resolver if resolver is not None else Resolver.seeded(0)
    if agents is None:
        agents = agents_of(machine)
    state = start if start is not None else initial_state(machine)
    trace = Trace(state, [], "budget")
    for _ in range(max_steps):
        res = ma_step(machine, state, scheduler, resolver, agents)
        if isinstance(res, Stalled):
            trace.outcome = "stalled"
            trace.tail_resolutions = res.resolutions
            return trace
        trace.steps.append(res)
        if isinstance(res, Inconsistent):
            trace.outcome = "inconsistent"
            return trace
        state = res.next_state
    return trace


def run(machine: MachineDef, max_steps: int, resolver: Optional[Resolver] = None,
        rule: Optional[str] = None, start: Optional[State] = None) -> Trace:
    """Run `rule` (default: main) as the anonymous agent."""
    return ma_run(machine, Synchronous(), max_steps, resolver, start,
                  (("", rule or machine.main),))


def export_trace_jsonl(trace: Trace) -> str:
    """One compact JSON object per step, newline separated, written as text:
    each update from its cached text (`Update.text`), each resolution as
    `{"kind", "label", "key", "value"}` (`ResEntry.from_json` reads it back),
    its value from its cached text."""
    lines, dumps = [], json.dumps
    for k, (st, digest) in enumerate(zip(trace.steps, trace.digests())):
        updates = ",".join(u.text() for u in st.updates)
        # a kind is one of four plain words, written as it is
        res = ",".join(f'{{"kind":"{e.kind}","label":{dumps(e.label)},"key":{dumps(e.key)},'
                       f'"value":{value_text(e.value)}}}' for e in st.resolutions)
        schedule = (f',"schedule":{dumps(st.schedule, separators=(",", ":"))}'
                    if st.schedule else "")
        lines.append(f'{{"step":{k},"updates":[{updates}],"resolutions":[{res}],'
                     f'"digest":"{digest}"{schedule}}}')
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Exhaustive enumeration


class _Replay(Resolver):
    """`_probe`'s draws. The n-th draw of an evaluation takes the current
    candidate of choice point n, a pair [candidates, index]; a draw past
    the stack opens a point at its last candidate."""

    def __init__(self, agent: str, bound: int) -> None:
        super().__init__()
        self._agent, self.bound, self.points = agent, bound, []
        self.counted = 0  # finished evaluations plus untried candidates

    def _draw(self, kind: str, label: str, key: str, candidates: List[Value], pos) -> Value:
        n = len(self._record)  # the record holds this evaluation's draws
        if n == len(self.points):
            if self.counted + len(candidates) > self.bound:
                raise BranchBudgetExceeded(self.bound)
            self.points.append([candidates, len(candidates) - 1])
            self.counted += len(candidates) - 1
        candidates, index = self.points[n]
        self._record.append(ResEntry(kind, label, key, candidates[index]))
        return candidates[index]


class _Reads(dict):
    """An agent view's content that notes, as keys of `read`, the locations
    a rule reads: every dynamic read of a compiled closure is a
    `content.get`. Only `_probe` builds one, and only when asked to."""

    __slots__ = ("read",)

    def __init__(self, content: Dict[Location, Value], read: Dict[Location, None]) -> None:
        super().__init__(content)
        self.read = read

    def get(self, loc, default=None):
        self.read[loc] = None
        return dict.get(self, loc, default)


def _probe(body: RuleExpr, state: State, machine: Optional[MachineDef], bound: int,
           agent: str = "", reads: Optional[Dict[Location, None]] = None):
    """Evaluate `body` once for every combination of choose/abstract draws,
    on `agent`'s view of `state`; yield (update set, resolutions) for each.
    Stateless search by replay (Godefroid, VeriSoft, POPL 1997): each
    evaluation runs to its end, then the deepest choice point with an
    untried candidate steps back by one: depth first, last candidate first.
    A draw that would make the finished evaluations plus the untried
    candidates pass `bound` raises BranchBudgetExceeded. With `reads`,
    every location the evaluations read is added to it as a key; the view
    is then a fresh state, so `state` itself is never touched."""
    state = _agent_view(state, agent)
    if reads is not None:
        state = state.derive(_Reads(state.content, reads))
    resolver = _Replay(agent, bound)
    points = resolver.points
    while True:
        resolver.begin_step(state)
        us = update_set(body, state, None, resolver, machine)
        yield us, resolver.end_step()
        while points and points[-1][1] == 0:
            points.pop()
        if not points:
            return
        points[-1][1] -= 1


def enumerate_update_sets(op: RuleExpr, state: State, machine: Optional[MachineDef] = None,
                          bound: int = 10_000) -> List[UpdateSet]:
    """All distinct update sets one rule can produce in one state, in
    `UpdateSet.key` order: sorted only when there are two or more."""
    sets = list({us for us, _ in _probe(op, state, machine, bound)})
    return sorted(sets, key=UpdateSet.key) if len(sets) > 1 else sets


def enumerate_moves(state: State, machine: MachineDef, rule: str, bound: int = 10_000,
                    agent: str = "", reads: Optional[Dict[Location, None]] = None
                    ) -> List[Outcome]:
    """All step outcomes over every choose/abstract resolution combination,
    a progressing one as its unfired Move.

    With an `agent`, the rule reads that agent's view of `state`. Outcomes
    come from `_outcome`, once per distinct update set (per clash set when
    inconsistent), in that order, each with the resolutions of its first
    witness. Raises BranchBudgetExceeded once the number of combinations
    passes `bound`. With `reads`, every location the rule read is added to
    it as a key.
    """
    results: Dict[object, Outcome] = {}
    for us, resolutions in _probe(rule_body(machine, rule), state, machine, bound,
                                  agent, reads):
        res = _outcome(state.sig, us, resolutions, (agent,))
        key = us if not isinstance(res, Inconsistent) else tuple(
            (loc.key(), tuple(sorted(map(value_key, vals)))) for loc, vals in res.clashes)
        results.setdefault(key, res)
    if len(results) < 2:
        return list(results.values())
    # update sets in key order, then clash sets: the sort keys are built only here
    return [results[k] for k in sorted(
        results, key=lambda k: (0, k.key()) if isinstance(k, UpdateSet) else (1, k))]


def enumerate_steps(state: State, machine: MachineDef, rule: str, bound: int = 10_000,
                    agent: str = "") -> List[StepResult]:
    """`enumerate_moves`, each Move fired on `state` itself."""
    return [_fired(state, res) for res in enumerate_moves(state, machine, rule, bound, agent)]
