"""The outcome memo of `multiagent.agent_successors` gives exactly what
`interp.enumerate_steps` gives when it evaluates the rule afresh, once
its moves are fired, and a plain `run` never records reads."""
import random

import pytest

from conftest import MODELS, SRC, content_key, load_model
from rulegen import pga_test_machine, pga_test_space, random_agent_machine, random_pga_rule
from asmweave import interp, multiagent
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
from asmweave.parser import parse_machine
from asmweave.scenario import run_suite
from asmweave.state import Location
from asmweave.values import FALSE, TRUE, IntV

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


def _walk(machine, depth: int, budget: int, memo=None) -> tuple:
    """Breadth-first over the states `explore` reaches, every expansion
    through one memo checked against the oracle: (expansions, misses)."""
    memo = {} if memo is None else memo
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
    return expansions, sum(map(_leaves, memo.values()))


def _leaves(node) -> int:
    """The outcomes held in a memo tree: a miss adds one leaf, a hit none."""
    return sum(map(_leaves, node[1].values())) if isinstance(node, list) else 1


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


# which location the rule reads second depends on the value of the first
BRANCH = """machine Branch
  controlled a, b, c, x
  rule R =
    par
      if a then x := b else x := c
      choose v in {true, false} do a := v
      choose w in {0, 1} do par b := w c := 1 - w endpar
    endpar
  init { a := true b := 0 c := 1 x := 0 }
  main R"""


def test_the_memo_follows_reads_whose_order_depends_on_a_value():
    machine, memo = parse_machine(BRANCH), {}
    for budget in BUDGETS[1:]:
        _walk(machine, 6, budget)
    expansions, misses = _walk(machine, 6, BUDGETS[0], memo)
    assert misses < expansions
    # the states diverge at the first read, and each branch reads on
    a, b, c = Location("a"), Location("b"), Location("c")
    (root,) = memo.values()
    assert root[0] is a and set(root[1]) == {TRUE, FALSE}
    assert root[1][TRUE][0] is b and root[1][FALSE][0] is c


def test_a_path_the_memo_does_not_follow_is_refused():
    machine = parse_machine(BRANCH)
    state = initial_state(machine)
    a, b, c = Location("a"), Location("b"), Location("c")
    for memo in (
            # a tree whose root reads another location than the rule reads first
            {("", "R"): [c, {}]},
            # one that reads on where the rule's reads end (at a true, b 0)
            {("", "R"): [a, {TRUE: [b, {IntV(0): [c, {}]}]}]}):
        with pytest.raises(AssertionError, match="outcome memo"):
            agent_successors(machine, state, "", "R", 10_000, memo)


def _misses(monkeypatch, explore_it) -> int:
    """The rule evaluations the memo could not spare in `explore_it()`."""
    calls = []
    enumerate_moves = multiagent.enumerate_moves
    monkeypatch.setattr(multiagent, "enumerate_moves",
                        lambda *args, **kw: calls.append(1) or enumerate_moves(*args, **kw))
    explore_it()
    monkeypatch.undo()
    return len(calls)


def test_the_memo_misses_of_ring_searches_are_pinned(monkeypatch, tmp_path):
    """A change that widens what a rule reads, or how the memo looks reads
    up, shows here as a count, not only as a time."""
    ring5 = load_model("ring5.asm")
    assert _misses(monkeypatch, lambda: explore(ring5, 12)) == 36
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    import workloads

    ops = workloads.setup_explore_ring(7, tmp_path, workloads.Loader())
    assert [_misses(monkeypatch, op.run) for op in ops] == [19, 19, 19, 16, 16, 14]


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
