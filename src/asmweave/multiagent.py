"""Bounded search over agent sets sharing one state.

`agent_successors` is the one state expansion: one agent's step outcomes
from a state, sorted into successors, inconsistent branches and stalls.
`explore` walks it breadth-first, deduplicating states by their exact
content (`State.key`: their (location, value) items, hash-consed objects
compared by identity, so no digest collision can merge two states), and
reports the shortest trace to a state violating a safety assertion: each
frontier state carries its path as parent links (`interp.Links`), which
`interp.trace_of` turns into that trace. `refine.enumerate_runs` walks it depth-first.
A machine without agent lines is explored as the anonymous agent "",
exactly as `run` steps it, so its counterexamples replay with `run`.
A successor is the `Progressed` outcome itself, carrying its `updates`
and `schedule`, so a counterexample is the chain of outcomes that reached
the violating state, with no second step record.

Each search keeps an outcome memo, so a state is expanded without
evaluating an agent's rule when the locations that rule read hold values
already seen (dynamic dependency tracking, as in Acar, Blelloch & Harper,
"Adaptive functional programming", POPL 2002, and the verifying traces of
Mokhov, Mitchell & Peyton Jones, "Build systems à la carte", ICFP 2018).
It is sound because an agent's outcomes are a function of the values its
rule reads: a miss evaluates through `enumerate_steps` with the view's
content recording every dynamic read; statics are fixed within one
command; `_probe`'s draws come from its own replay stack, and it injects
no monitored input. A memo lives for one search, over one machine and
one branch budget, and never outside a command.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import GuardNotBoolean
# the step semantics live in interp; Interleaving, _can_progress, ma_step
# and ma_run are re-exported
from .interp import (
    SELF_LOC,
    Inconsistent,
    Interleaving,
    Links,
    Progressed,
    Stalled,
    Trace,
    _can_progress,
    agents_of,
    enumerate_steps,
    eval_term,
    initial_state,
    ma_run,
    ma_step,
    trace_of,
)
from .parser import MachineDef, Term
from .state import Location, State, fire
from .values import UNDEF, BoolV, show_value


@dataclass
class ExploreReport:
    states_visited: int
    counterexample: Optional[Trace]
    violating_state: Optional[State]
    inconsistent_branches: int
    complete: bool = False  # frontier emptied before the depth bound


# Per (agent, rule): {locations read: {their values: outcomes}}, one entry
# per distinct read tuple. Outcomes are the cached progressed steps (their
# next states fired on the state that missed), inconsistent branches and
# whether some branch stalls.
Outcomes = Tuple[Tuple[Progressed, ...], Tuple[Inconsistent, ...], bool]
OutcomeMemo = Dict[Tuple[str, str], Dict[Tuple[Location, ...], Dict[tuple, Outcomes]]]


def agent_successors(
    machine: MachineDef,
    state: State,
    aid: str,
    rule: str,
    budget: int,
    memo: OutcomeMemo,
) -> Tuple[List[Progressed], List[Inconsistent], bool]:
    """One agent's steps from a state: its distinct successors, its
    inconsistent resolution branches, and whether some resolution stalls.
    `memo` holds this search's outcomes; on a hit, the cached update sets
    are fired on `state`. Errors are not cached: they end the search."""
    entries = memo.setdefault((aid, rule), {})
    get = state.content.get
    for locs, table in entries.items():
        hit = table.get(tuple([get(loc, UNDEF) for loc in locs]))
        if hit is not None:
            progressed, inconsistent, stalled = hit
            return ([Progressed(fire(state, p.updates), p.updates, p.resolutions, p.schedule)
                     for p in progressed], list(inconsistent), stalled)
    reads: Dict[Location, None] = {}
    progressed, inconsistent, stalled = [], [], False
    for res in enumerate_steps(state, machine, rule, budget, agent=aid, reads=reads):
        if isinstance(res, Progressed):
            progressed.append(res)
        elif isinstance(res, Stalled):
            stalled = True
        else:
            inconsistent.append(res)
    if aid:  # a named agent's `self` is its own id
        reads.pop(SELF_LOC, None)
    locs = tuple(reads)
    entries.setdefault(locs, {})[tuple([get(loc, UNDEF) for loc in locs])] = (
        tuple(progressed), tuple(inconsistent), stalled)
    return progressed, inconsistent, stalled


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
    agents = agents_of(machine)
    init = start if start is not None else initial_state(machine)
    memo: OutcomeMemo = {}
    seen = {init.key()}
    inconsistent = 0

    def violation(links: Links) -> ExploreReport:
        trace = trace_of(init, links, "violation")
        return ExploreReport(len(seen), trace, trace.final_state, inconsistent)

    if assertion is not None and not _check_assertion(assertion, init):
        return violation(None)

    frontier: List[Tuple[State, Links]] = [(init, None)]
    for _ in range(depth):
        if not frontier:
            break
        next_frontier: List[Tuple[State, Links]] = []
        for state, links in frontier:
            for aid, rule in agents:
                succs, bad, _ = agent_successors(machine, state, aid, rule, branch_budget,
                                                 memo)
                inconsistent += len(bad)
                for res in succs:
                    nxt = res.next_state
                    if nxt.key() in seen:
                        continue
                    seen.add(nxt.key())
                    if assertion is not None and not _check_assertion(assertion, nxt):
                        return violation((res, links))
                    next_frontier.append((nxt, (res, links)))
        frontier = next_frontier
    return ExploreReport(len(seen), None, None, inconsistent, complete=not frontier)
