"""Concurrent runs of agent sets over one shared state.

Each agent loops its own rule with the implicit `self` input bound to its
id. Three schedulers are provided: synchronous (all agents step against
the same pre-state and their update sets are unioned), interleaving (one
schedulable agent per step, picked through the resolver), and a scripted
order for scenario-driven runs. `explore` walks every interleaving and
resolution breadth-first, deduplicating states, and reports the shortest
trace to a state violating a safety assertion.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import BranchBudgetExceeded, EvalError, GuardNotBoolean
from .interp import (
    DEFAULT_CALL_DEPTH,
    SELF_LOC,  # re-exported: an agent reads its id at this location
    Env,
    Inconsistent,
    Progressed,
    Resolver,
    Stalled,
    StepResult,
    Trace,
    TraceStep,
    _agent_view,
    _outcome,
    _probe,
    _run_trace,
    _update_set,
    enumerate_steps,
    eval_term,
    initial_state,
    rule_body,
)
from .parser import MachineDef, Term
from .state import Location, State, UpdateSet, controlled_digest
from .values import BoolV, Value, show_value


@dataclass(frozen=True)
class AgentSet:
    machine: MachineDef
    agents: Tuple[Tuple[str, str], ...]  # (agent id, rule name)

    @staticmethod
    def of(machine: MachineDef) -> "AgentSet":
        agents = machine.agents or (("main", machine.main),)
        return AgentSet(machine, agents)


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


def _scheduled(res: StepResult, aids: Tuple[str, ...]) -> MaStepResult:
    """A stalled step schedules nobody."""
    return MaStepResult(res, () if isinstance(res, Stalled) else aids)


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
    if agents is None:
        agents = AgentSet.of(machine).agents
    injections = resolver.begin_step(state)
    eval_state = state.with_content(injections) if injections else state
    moved = eval_state.content != state.content

    if isinstance(scheduler, Synchronous):
        union = UpdateSet.empty()
        writers: Dict[Location, List[Tuple[str, Value]]] = {}
        for aid, rule in agents:
            us = _agent_update_set(machine, eval_state, aid, rule, resolver,
                                   max_call_depth)
            for u in us.updates:
                writers.setdefault(u.loc, []).append((aid, u.val))
            union = union.union(us)
        out = _scheduled(_outcome(eval_state, union, resolver.end_step(), moved),
                         tuple(a for a, _ in agents))
        if isinstance(out.result, Inconsistent):
            out.provenance = {loc: writers[loc] for loc, _ in out.result.clashes}
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


def ma_run(
    machine: MachineDef,
    scheduler: Scheduler,
    max_steps: int,
    resolver: Optional[Resolver] = None,
    start: Optional[State] = None,
    max_call_depth: int = DEFAULT_CALL_DEPTH,
    agents: Optional[Tuple[Tuple[str, str], ...]] = None,
) -> Trace:
    resolver = resolver if resolver is not None else Resolver.seeded(0)

    def ma(state: State, k: int):
        out = ma_step(machine, state, scheduler, resolver, k, max_call_depth, agents)
        return out.result, out.scheduled

    return _run_trace(machine, resolver, start, max_steps, ma)


# ---------------------------------------------------------------------------
# Bounded exploration


@dataclass
class ExploreReport:
    states_visited: int
    counterexample: Optional[Trace]
    violating_state: Optional[State]
    inconsistent_branches: int
    complete: bool = False  # frontier emptied before the depth bound
    visited_digests: frozenset = frozenset()


def agent_successors(
    machine: MachineDef,
    state: State,
    aid: str,
    rule: str,
    budget: int,
) -> Tuple[List[Progressed], List[Inconsistent]]:
    """The distinct successors one agent can produce from a state, plus
    any inconsistent resolution branches."""
    out: List[Progressed] = []
    bad: List[Inconsistent] = []
    for res in enumerate_steps(state, machine, rule, budget, agent=aid):
        if isinstance(res, Progressed):
            out.append(res)
        elif isinstance(res, Inconsistent):
            bad.append(res)
    return out, bad


def _check_assertion(assertion: Term, state: State) -> bool:
    v = eval_term(assertion, state)
    if not isinstance(v, BoolV):
        raise GuardNotBoolean(f"assertion evaluated to {show_value(v)}")
    return v.b


def explore(
    machine: MachineDef,
    depth: int,
    branch_budget: int = 10_000,
    assertion: Optional[Term] = None,
    start: Optional[State] = None,
) -> ExploreReport:
    """Breadth-first search over all interleavings and resolutions.

    States are deduplicated by their controlled content. The first
    violation found is the shortest, by BFS order.
    """
    agents = AgentSet.of(machine).agents
    init = start if start is not None else initial_state(machine)

    # parallel arrays indexed by discovery order
    states: List[State] = [init]
    parents: List[int] = [-1]
    via: List[Optional[Tuple[str, Progressed]]] = [None]
    index: Dict[str, int] = {controlled_digest(init): 0}
    inconsistent = 0

    def build_trace(idx: int) -> Trace:
        chain = []
        while parents[idx] != -1:
            chain.append(idx)
            idx = parents[idx]
        chain.reverse()
        trace = Trace(machine.name, "explore", [], [states[0]], "violation")
        for node in chain:
            aid, res = via[node]
            trace.steps.append(TraceStep(res.fired, res.resolutions, (aid,)))
            trace.states.append(states[node])
        return trace

    if assertion is not None and not _check_assertion(assertion, init):
        return ExploreReport(1, build_trace(0), init, 0)

    frontier = [0]
    for _ in range(depth):
        if not frontier:
            break
        next_frontier: List[int] = []
        for idx in frontier:
            state = states[idx]
            for aid, rule in agents:
                succs, bad = agent_successors(machine, state, aid, rule, branch_budget)
                inconsistent += len(bad)
                for res in succs:
                    nxt = res.next_state
                    digest = controlled_digest(nxt)
                    if digest in index:
                        continue
                    states.append(nxt)
                    parents.append(idx)
                    via.append((aid, res))
                    new_idx = len(states) - 1
                    index[digest] = new_idx
                    if assertion is not None and not _check_assertion(assertion, nxt):
                        return ExploreReport(len(states), build_trace(new_idx),
                                             nxt, inconsistent)
                    next_frontier.append(new_idx)
        frontier = next_frontier
    return ExploreReport(len(states), None, None, inconsistent,
                         complete=not frontier, visited_digests=frozenset(index))
