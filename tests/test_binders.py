"""forall and choose bind into one env dict per evaluation, rebound for
each element: the update sets, draws and errors are the oracle's."""
import pytest

import interp_oracle
from asmweave import interp
from asmweave.errors import AsmError
from asmweave.interp import Resolver, initial_state, rule_body
from asmweave.parser import parse_machine


def _machine(main: str) -> str:
    return ("machine M\n  controlled x, f/1, g/2, h/1\n  rule Main =\n"
            f"{main}\n  init {{ x := 1 }}\n  main Main\n")


def _agree(main: str, seed: int = 3):
    """The update set of Main, or its error, and the draws made, from the
    compiled closures; asserted equal to the oracle's."""
    machine = parse_machine(_machine(main))
    state = initial_state(machine)
    results = []
    for update_set in (interp.update_set, interp_oracle.update_set):
        resolver = Resolver.seeded(seed)
        resolver.begin_step(state)
        try:
            got = update_set(rule_body(machine, "Main"), state, None, resolver, machine)
        except AsmError as e:
            got = (type(e).__name__, str(e), e.pos)
        results.append((got, tuple(resolver._record)))
    assert results[0] == results[1]
    return results[0]


def test_a_forall_inside_a_forall_over_the_same_variable():
    # the inner loop rebinds i in its own env; the outer i is intact after it
    updates, _ = _agree("    forall i in {0 .. 2} do par\n"
                        "      forall i in {i + 10, i + 20} do g(i, 0) := i\n"
                        "      f(i) := i\n"
                        "      forall i in {i .. 4} with i > x do g(i, 1) := i\n"
                        "      h(i) := i * 2\n"
                        "    endpar")
    assert len(updates) == 6 + 3 + 3 + 3  # g(2 .. 4, 1) alike for every i
    assert {(u.loc.show(), u.val.n) for u in updates if u.loc.fname in ("f", "h")} == {
        ("f(0)", 0), ("f(1)", 1), ("f(2)", 2), ("h(0)", 0), ("h(1)", 2), ("h(2)", 4)}


def test_a_choose_in_a_forall_body_draws_by_the_loop_variable():
    # each draw key digests the bindings in scope, the loop variable among them
    updates, draws = _agree("    forall i in {0 .. 3} do\n"
                            "      choose v in {1, 2, 3, 4} with v != i do f(i) := v")
    assert len(updates) == 4 and len(draws) == 4
    assert len({d.key for d in draws}) == 4


def test_a_choose_in_a_nested_forall_over_the_same_variable():
    _, draws = _agree("    forall i in {0 .. 2} do forall i in {i, i + 3} do\n"
                      "      choose v in {i, i + 1} do g(i, v) := x")
    assert len(draws) == 6


def test_a_let_in_a_forall_body():
    # the let binds i in an env of its own; the loop's i is intact beside it
    updates, _ = _agree("    forall i in {0 .. 3} with i != x do par\n"
                        "      let y = i + x in let i = y * 10 in g(y, i) := i\n"
                        "      h(i) := i\n"
                        "    endpar")
    assert len(updates) == 6
    assert {(u.loc.show(), u.val.n) for u in updates if u.loc.fname == "h"} == {
        ("h(0)", 0), ("h(2)", 2), ("h(3)", 3)}


@pytest.mark.parametrize("binder", ["forall", "choose"])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_a_guard_raising_at_the_kth_element(binder, k):
    # `i != k or undef` is true before the k-th element and undef at it
    got, _ = _agree(f"    {binder} i in {{0 .. 4}} with i != {k} or undef do f(i) := i")
    assert got[0] == "GuardNotBoolean"
    assert got[1].endswith("evaluated to undef")
