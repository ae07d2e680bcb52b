"""Work a seeded run does once, counted and not timed: a background
operation applied to constants keeps its first value (and never an
error), each update location is checked against the signature once, and
`enumerate_moves` builds no sort key for a lone outcome."""
import pytest

from asmweave import background, interp
from asmweave.errors import ArityMismatch, KindViolation, UnknownFunction
from asmweave.interp import Resolver, enumerate_moves, initial_state
from asmweave.parser import parse_machine
from asmweave.state import (FuncDecl, FunctionKind, Location, Signature, State, Update,
                            UpdateSet, fire)
from asmweave.values import IntV, mkset


@pytest.fixture
def calls(monkeypatch):
    """`calls(name, arity, fn)` registers `fn` under `name` in a copy of the
    registry kept for this test, and returns the list of its calls' arguments."""
    monkeypatch.setattr(background, "_REGISTRY", dict(background._REGISTRY))

    def counting(name, arity, fn):
        seen = []

        def op(*args):
            seen.append(args)
            return fn(*args)
        background.register(name, arity, op)
        return seen
    return counting


def _machine(main: str) -> str:
    return (f"machine M\n  controlled x, f/1, g/1\n  rule Main =\n{main}\n"
            "  init { x := 0 }\n  main Main\n")


def test_a_constant_range_is_built_once_in_a_run(calls):
    mkrange = background.background_op("mkrange")[1]
    ranges = calls("mkrange", 2, mkrange)
    tallies = calls("tally_range", 2, mkrange)
    machine = parse_machine(_machine(
        "    par\n      x := x + 1\n"
        "      forall i in {0 .. 3} do f(i) := x\n"
        "      forall i in tally_range(1 + 1, card({0 .. 3})) with i > x do g(i) := 0\n"
        "    endpar"))
    trace = interp.run(machine, 100, Resolver.seeded(4))
    assert (trace.outcome, len(trace.steps)) == ("budget", 100)
    # `{0 .. 3}` twice in the tree: one build per node, not per step
    assert ranges == [(IntV(0), IntV(3))] * 2
    assert len(tallies) == 1


def test_a_range_in_a_branch_never_taken_is_never_built(calls):
    built = calls("mkrange", 2, lambda lo, hi: mkset(()))  # never the real 10^8 range
    machine = parse_machine(_machine(
        "    par\n      x := x + 1\n"
        "      if false then forall i in {0 .. 100000000} do f(i) := 1\n"
        "    endpar"))
    assert len(interp.run(machine, 5, Resolver.seeded(0)).steps) == 5
    assert built == []


def test_an_error_is_evaluated_again_and_only_a_value_is_kept(calls):
    def flaky(v):
        if len(seen) <= 2:
            raise ValueError("not yet")
        return v
    seen = calls("flaky", 1, flaky)
    machine = parse_machine(_machine("    x := flaky(7)"))
    state = initial_state(machine)
    for n in (1, 2):
        with pytest.raises(ValueError):
            interp.step(state, machine, "Main", Resolver.seeded(0))
        assert len(seen) == n
    for _ in range(2):
        res = interp.step(state, machine, "Main", Resolver.seeded(0))
        assert res.next_state.content[Location("x")] == IntV(7)
    assert len(seen) == 3


def test_substituted_constant_arguments_are_evaluated_once_per_level(calls):
    """`Down(k - 1, acc + k)` from `Down(60, total)`: each `60 - 1 - ... - 1`
    is subtracted once over the whole run, while `acc`, which reads
    `total`, is added up again at every step."""
    minus = calls("-", 2, background.background_op("-")[1])
    plus = calls("+", 2, background.background_op("+")[1])
    machine = parse_machine(
        "machine Recursion\n  controlled total\n"
        "  rule Down(k, acc) = if k > 0 then Down(k - 1, acc + k) else total := acc\n"
        "  rule Main = Down(60, total)\n  init { total := 5 }\n  main Main\n")
    trace = interp.run(machine, 3, Resolver.seeded(0))
    assert trace.final_state.content[Location("total")] == IntV(5 + 3 * 60 * 61 // 2)
    assert len(minus) == 60
    assert len(plus) == 3 * 60


SIG = Signature((FuncDecl("f", 1, FunctionKind.CONTROLLED),
                 FuncDecl("m", 0, FunctionKind.MONITORED)))


def test_a_location_is_remembered_only_once_it_passes():
    state = State(SIG)
    good = Update(Location("f", (IntV(1),)), IntV(2))
    bad = [(Update(Location("m"), IntV(1)), KindViolation),
           (Update(Location("g"), IntV(1)), UnknownFunction),
           (Update(Location("f"), IntV(1)), ArityMismatch)]
    for _ in range(2):
        for u, error in bad:
            with pytest.raises(error):
                fire(state, UpdateSet.of([good, u]))
        assert fire(state, UpdateSet.of([good])).content == {good.loc: good.val}
    assert SIG._updatable == {good.loc}


def test_a_lone_outcome_builds_no_sort_key(monkeypatch):
    machine = parse_machine(_machine("    if x < 3 then x := x + 1"))
    keys = []
    key = UpdateSet.key
    monkeypatch.setattr(UpdateSet, "key", lambda us: keys.append(us) or key(us))
    moves = enumerate_moves(initial_state(machine), machine, "Main")
    assert [m.writes for m in moves] == [{Location("x"): IntV(1)}]
    assert keys == []
