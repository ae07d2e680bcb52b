"""`normalform.equivalence_check` gives the verdict of the reference in
`normalform_oracle`, which sorts every state's update sets by keys
computed afresh: the same `passed`, `states_checked` and witness state.
Random PGA rules are compared with their true normal form and with one
whose clause has its guard negated, on a space of well-typed states and
on one where boolean locations may hold undef, and half of the rules
start with a clause whose guard is not boolean on most states, where
both rules raise."""
import random

import pytest

import normalform_oracle
from rulegen import (PGA_BOOL_LOCS, PGA_INT_LOCS, pga_test_machine, pga_test_space,
                     random_pga_rule)
from asmweave import normalform
from asmweave.interp import initial_state
from asmweave.normalform import NormalForm, equivalence_check, normalize
from asmweave.parser import App, Assign, If, Lit, Par
from asmweave.state import Location
from asmweave.values import FALSE, TRUE, UNDEF, IntV

BENCH = pga_test_machine()
UNTYPED = ([(Location(n), [TRUE, FALSE, UNDEF]) for n in PGA_BOOL_LOCS]
           + [(Location(n), [IntV(0), IntV(2)]) for n in PGA_INT_LOCS])
# `n2 = 0 or n1` is true where n2 = 0 and undef elsewhere: a guard error
RAISING = If(App("or", (App("=", (App("n2", ()), Lit(IntV(0)))), App("n1", ()))),
             Assign(App("b1", ()), App("b1", ())))


def _verdict(impl, *args) -> tuple:
    v = impl.equivalence_check(BENCH, *args)
    return v.passed, v.states_checked, v.witness


def _negated(nf: NormalForm, k: int) -> NormalForm:
    clauses = list(nf.clauses)
    guard, assign = clauses[k]
    clauses[k] = (App("not", (guard,)), assign)
    return NormalForm(clauses)


def _case(seed: int):
    """A random rule, led by RAISING for odd seeds, its normal form and
    that form with one clause's guard negated."""
    rng = random.Random(seed)
    rule = random_pga_rule(rng, 3)
    if seed % 2:
        rule = Par((RAISING, rule))
    nf = normalize(BENCH, rule)
    return rule, nf, _negated(nf, rng.randrange(len(nf.clauses)))


@pytest.mark.parametrize("seed", range(40))
def test_verdicts_agree_with_the_reference(seed):
    rule, nf, wrong = _case(seed)
    for space in (pga_test_space(), UNTYPED):
        for other in (nf, wrong):
            want = _verdict(normalform_oracle, rule, other, space)
            assert _verdict(normalform, rule, other, space) == want


def test_the_cases_reach_passes_fails_and_errors_on_both_sides():
    verdicts = {(seed % 2, equivalence_check(BENCH, rule, other, space).passed)
                for seed in range(40) for rule, *others in [_case(seed)] for other in others
                for space in (pga_test_space(), UNTYPED)}
    assert verdicts == {(0, True), (0, False), (1, True), (1, False)}
    rule = Par((RAISING, Assign(App("n1", ()), Lit(IntV(1)))))
    nf = normalize(BENCH, rule)
    state = initial_state(BENCH).with_content(
        {Location("n1"): IntV(2), Location("n2"): IntV(1), Location("b1"): FALSE})
    for body in (rule, nf.to_rule()):
        assert normalform._outcome(body, state, BENCH) == ("error", "GuardNotBoolean")
    assert equivalence_check(BENCH, rule, nf, pga_test_space()).passed
