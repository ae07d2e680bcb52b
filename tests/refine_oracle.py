"""The refinement check without caches or indexes, kept as the oracle
for `asmweave.refine`: every run re-expands its states through
`_successors`, with an empty outcome memo each time, every state of every
run is observed afresh, and each refined run is matched by a scan of every
abstract run."""
from __future__ import annotations

from typing import List, Optional, Tuple

from conftest import content_key
from asmweave.errors import BranchBudgetExceeded
from asmweave.interp import Progressed, Trace, eval_term, initial_state
from asmweave.refine import (
    BudgetExhausted,
    Fail,
    ObservationSeq,
    Pass,
    RefinementSpec,
    RefinementVerdict,
    RefineStats,
    _successors,
)
from asmweave.state import State
from asmweave.values import Value


def enumerate_runs(
    machine,
    max_steps: int,
    budget: int,
    start: Optional[State] = None,
) -> Tuple[List[Trace], bool]:
    """The runs in depth-first order, cut short when a step has more than
    `budget` resolutions or the walk reaches its `budget + 1`-th distinct
    (content, depth) pair past the start."""
    init = start if start is not None else initial_state(machine)
    runs: List[Trace] = []
    reached = set()
    stack: List[Tuple[State, List[Progressed]]] = [(init, [])]
    while stack:
        state, steps = stack.pop()
        if steps:
            reached.add((content_key(state), len(steps)))
            if len(reached) > budget:
                return runs, True
        if len(steps) >= max_steps:
            runs.append(Trace(init, steps, "budget"))
            continue
        try:
            # a fresh outcome memo: every expansion evaluates the rules
            moves, stalled, inconsistent = _successors(machine, state, budget, {})
        except BranchBudgetExceeded:
            return runs, True
        if stalled:
            runs.append(Trace(init, steps, "stalled"))
        for res in inconsistent:
            runs.append(Trace(init, steps + [res], "inconsistent"))
        for move in moves:
            res = move.fire(state)
            stack.append((res.next_state, steps + [res]))
    return runs, False


def observe(trace: Trace, spec: RefinementSpec, side: str) -> ObservationSeq:
    if side == "abstract":
        terms = [abs_t for _, abs_t, _ in spec.observations]
    else:
        terms = [ref_t for _, _, ref_t in spec.observations]
    marker = "budget" if trace.outcome == "violation" else trace.outcome
    seq: List[Tuple[Value, ...]] = []
    for s in trace.states:
        obs = tuple(eval_term(t, s) for t in terms)
        if not seq or seq[-1] != obs:
            seq.append(obs)
    return ObservationSeq(tuple(seq), marker)


def _is_prefix(shorter: tuple, longer: tuple) -> bool:
    return len(shorter) <= len(longer) and longer[: len(shorter)] == shorter


def _common_prefix_len(a: tuple, b: tuple) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def check_refinement(spec: RefinementSpec) -> RefinementVerdict:
    a_steps, r_steps, budget = spec.bounds
    a_start = initial_state(spec.abstract, spec.abstract_init)
    r_start = initial_state(spec.refined, spec.refined_init)
    abs_runs, abs_trunc = enumerate_runs(spec.abstract, a_steps, budget, a_start)
    ref_runs, ref_trunc = enumerate_runs(spec.refined, r_steps, budget, r_start)
    abstract_seqs = [observe(r, spec, "abstract") for r in abs_runs]
    stats = RefineStats(len(abs_runs), len(ref_runs), abs_trunc, ref_trunc)

    first_fail: Optional[Tuple[Trace, ObservationSeq]] = None
    undecided = False
    for r in ref_runs:
        o = observe(r, spec, "refined")
        if o.marker == "budget":
            matched = any(_is_prefix(o.tuples, a.tuples) for a in abstract_seqs)
        else:
            matched = any(a.marker == o.marker and a.tuples == o.tuples
                          for a in abstract_seqs)
        if matched:
            continue
        possible = abs_trunc or any(
            a.marker == "budget" and _is_prefix(a.tuples, o.tuples)
            for a in abstract_seqs
        )
        if possible:
            undecided = True
        elif first_fail is None:
            first_fail = (r, o)

    if first_fail is not None:
        r, o = first_fail
        nearest = sorted(abstract_seqs,
                         key=lambda a: -_common_prefix_len(a.tuples, o.tuples))[:3]
        return Fail(stats, r, o, nearest)
    if undecided or ref_trunc:
        return BudgetExhausted(stats)
    return Pass(stats)
