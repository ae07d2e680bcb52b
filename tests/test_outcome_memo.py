"""The outcome memo of `multiagent.agent_successors` gives exactly what
`interp.enumerate_steps` gives when it evaluates the rule afresh, once
its moves are fired, and a plain `run` never records reads."""
import random

import pytest

from conftest import MODELS, content_key, load_model
from rulegen import pga_test_machine, pga_test_space, random_agent_machine, random_pga_rule
from asmweave import interp
from asmweave.errors import AsmError
from asmweave.interp import (
    Inconsistent,
    Interleaving,
    Progressed,
    Resolver,
    Stalled,
    agents_of,
    enumerate_steps,
    initial_state,
    ma_run,
    run,
)
from asmweave.multiagent import agent_successors, explore
from asmweave.normalform import equivalence_check, normalize
from asmweave.scenario import run_suite
from asmweave.state import Location
from asmweave.values import IntV

BUDGETS = (10_000, 1, 2, 5)


def _attempt(fn):
    """(result, None), or (None, (error class, message)) for an AsmError."""
    try:
        return fn(), None
    except AsmError as e:
        return None, (type(e), str(e))


def _oracle(machine, state, aid, rule, budget):
    """`enumerate_steps` sorted as `agent_successors` sorts it."""
    results = enumerate_steps(state, machine, rule, budget, agent=aid)
    return ([r for r in results if isinstance(r, Progressed)],
            [r for r in results if isinstance(r, Inconsistent)],
            any(isinstance(r, Stalled) for r in results))


def _summary(progressed, inconsistent, stalled) -> tuple:
    return ([(r.updates, r.resolutions, r.schedule, content_key(r.next_state))
             for r in progressed], list(inconsistent), stalled)


def _walk(machine, depth: int, budget: int) -> tuple:
    """Breadth-first over the states `explore` reaches, every expansion
    through one memo checked against the oracle: (expansions, misses)."""
    memo: dict = {}
    init = initial_state(machine)
    seen, frontier, expansions = {content_key(init)}, [init], 0
    for _ in range(depth):
        next_frontier = []
        for state in frontier:
            for aid, rule in agents_of(machine):
                want, want_error = _attempt(
                    lambda: _oracle(machine, state, aid, rule, budget))
                got, got_error = _attempt(
                    lambda: agent_successors(machine, state, aid, rule, budget, memo))
                assert got_error == want_error
                expansions += 1
                if want_error is not None:
                    continue
                moves, inconsistent, stalled = got
                assert (_summary([m.fire(state) for m in moves], inconsistent, stalled)
                        == _summary(*want))
                for res in want[0]:
                    if content_key(res.next_state) not in seen:
                        seen.add(content_key(res.next_state))
                        next_frontier.append(res.next_state)
        frontier = next_frontier
    # a miss adds one row to its agent's memo, a hit none
    misses = sum(len(table) for entries in memo.values() for table in entries.values())
    return expansions, misses


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.asm")), ids=lambda p: p.stem)
def test_memo_agrees_with_the_oracle_on_the_models(path):
    machine = load_model(path.name)
    for budget in BUDGETS:
        _walk(machine, 6, budget)


def test_memo_agrees_with_the_oracle_on_random_agent_machines():
    rng = random.Random(12)
    expansions = misses = 0
    for i in range(200):
        machine = random_agent_machine(rng, f"M{i}")
        for budget in BUDGETS:
            e, m = _walk(machine, 6, budget)
            expansions, misses = expansions + e, misses + m
    assert misses < expansions / 2


def test_ring_states_are_expanded_mostly_from_the_memo():
    expansions, misses = _walk(load_model("ring5.asm"), 6, 10_000)
    assert misses * 10 < expansions


def test_a_miss_leaves_the_anonymous_agents_state_alone():
    # agent "" reads the caller's own state; the recording view is a copy
    machine = load_model("swap.asm")
    state = initial_state(machine)
    content = state.content
    before = dict(content)
    succs, _, _ = agent_successors(machine, state, "", machine.main, 10_000, {})
    assert succs
    assert state.content is content and type(content) is dict and content == before
    assert succs[0].fire(state).next_state.content == {Location("a"): IntV(2),
                                                       Location("b"): IntV(1)}


def test_run_never_records_reads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a read was recorded")

    monkeypatch.setattr(interp._Reads, "__init__", refuse)
    monkeypatch.setattr(interp._Reads, "get", refuse)
    assert run(load_model("swap.asm"), 5, Resolver.seeded(1)).outcome == "budget"
    trace = ma_run(load_model("ring3.asm"), Interleaving(), 30, Resolver.seeded(3))
    assert trace.steps
    assert run_suite(MODELS / "scenarios" / "green").exit_status == 0
    machine, rng = pga_test_machine(), random.Random(3)
    for _ in range(5):
        rule = random_pga_rule(rng, max_depth=3)
        assert equivalence_check(machine, rule, normalize(machine, rule),
                                 pga_test_space()).passed
    # the guard holds: a search does record
    with pytest.raises(AssertionError, match="a read was recorded"):
        explore(load_model("ring3.asm"), 1)
