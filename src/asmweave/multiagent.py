"""Bounded exploration of agent sets over one shared state.

`explore` walks every agent's every resolution breadth-first,
deduplicating states by their exact content (`State.key`, no hash), and
reports the shortest trace to a state violating a safety assertion. A
machine without agent lines is explored as the anonymous agent "",
exactly as `run` steps it, so its counterexamples replay with `run`.
The step semantics (agent sets, the three schedulers, `ma_step`,
`ma_run`) live in `interp` and are re-exported here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

from .errors import GuardNotBoolean
# the step semantics are re-exported: SELF_LOC, AgentSet, the schedulers,
# MaStepResult, _can_progress, ma_step and ma_run
from .interp import (
    SELF_LOC,
    AgentSet,
    Inconsistent,
    Interleaving,
    MaStepResult,
    Progressed,
    Scheduler,
    ScriptedOrder,
    Synchronous,
    Trace,
    TraceStep,
    _can_progress,
    _schedule_of,
    enumerate_steps,
    eval_term,
    initial_state,
    ma_run,
    ma_step,
)
from .parser import MachineDef, Term
from .state import State, controlled_digest
from .values import BoolV, show_value


@dataclass
class ExploreReport:
    states_visited: int
    counterexample: Optional[Trace]
    violating_state: Optional[State]
    inconsistent_branches: int
    complete: bool = False  # frontier emptied before the depth bound
    # every distinct state, kept when the search ends without a violation
    visited: Tuple[State, ...] = ()

    @cached_property
    def visited_digests(self) -> frozenset:
        """The controlled digests of the visited states, hashed on first read."""
        return frozenset(controlled_digest(s) for s in self.visited)


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

    States are deduplicated by their exact content. `fire` writes only
    controlled locations, so within one search the rest of the content is
    that of the start state, and equal content means equal controlled
    content. The first violation found is the shortest, by BFS order.
    """
    agents = AgentSet.of(machine).agents
    init = start if start is not None else initial_state(machine)

    # parallel arrays indexed by discovery order
    states: List[State] = [init]
    parents: List[int] = [-1]
    via: List[Optional[Tuple[str, Progressed]]] = [None]
    seen = {init.key()}
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
            trace.steps.append(TraceStep(res.fired, res.resolutions, _schedule_of((aid,))))
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
                    if nxt.key() in seen:
                        continue
                    seen.add(nxt.key())
                    states.append(nxt)
                    parents.append(idx)
                    via.append((aid, res))
                    new_idx = len(states) - 1
                    if assertion is not None and not _check_assertion(assertion, nxt):
                        return ExploreReport(len(states), build_trace(new_idx),
                                             nxt, inconsistent)
                    next_frontier.append(new_idx)
        frontier = next_frontier
    return ExploreReport(len(states), None, None, inconsistent,
                         complete=not frontier, visited=tuple(states))
