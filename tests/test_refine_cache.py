"""The refinement check on the state graph (each distinct state expanded
and observed once, runs counted rather than walked, refined prefixes
matched against configurations of abstract nodes) gives exactly the
results of the uncached oracle in `refine_oracle`, down to the depth-first
prefix of runs a side keeps when its step resolutions or its (state, depth)
nodes pass the budget."""
import dataclasses
import random
from collections import Counter

import refine_oracle
from conftest import MODELS, content_key
from rulegen import random_agent_machine, random_machine
from asmweave import refine
from asmweave.interp import eval_term, export_trace_jsonl, initial_state, trace_of
from asmweave.parser import parse_term
from asmweave.refine import Fail, RefinementSpec, parse_manifest


def _summary(verdict) -> tuple:
    """Everything a verdict reports, with the counterexample as exported."""
    out = (type(verdict).__name__, dataclasses.astuple(verdict.stats))
    if isinstance(verdict, Fail):
        out += (verdict.observed, tuple(verdict.nearest_abstract),
                export_trace_jsonl(verdict.counterexample))
    return out


def _runs(module, machine, steps, budget) -> tuple:
    runs, truncated = module.enumerate_runs(machine, steps, budget)
    if module is refine:  # run records: rebuild each Trace from its path
        start = initial_state(machine)
        runs = [trace_of(start, path, marker) for marker, path in runs]
    return truncated, [(t.outcome, t.clashes, t.steps, t.states) for t in runs]


def _assert_agrees(spec) -> tuple:
    """The checker's summary, asserted equal to the oracle's, with equal
    run lists on both sides."""
    got = _summary(refine.check_refinement(spec))
    assert got == _summary(refine_oracle.check_refinement(spec))
    a_steps, r_steps, budget = spec.bounds
    for machine, steps in ((spec.abstract, a_steps), (spec.refined, r_steps)):
        assert (_runs(refine, machine, steps, budget)
                == _runs(refine_oracle, machine, steps, budget))
    return got


def _chain_steps(name: str):
    path = MODELS / "chains" / name
    return parse_manifest(path.read_text(encoding="utf-8"), path.parent)


def test_bundled_chains_agree_with_the_oracle():
    verdicts = [_assert_agrees(s.spec)[0]
                for name in ("chain_ok.refine", "chain_broken.refine")
                for s in _chain_steps(name)]
    assert {"Pass", "Fail"} <= set(verdicts)


def test_chain_ok_at_bounds_7_agrees_with_the_oracle():
    for s in _chain_steps("chain_ok.refine"):
        spec = dataclasses.replace(s.spec, bounds=(7, 7, 10_000))
        assert _assert_agrees(spec)[0] == "Pass"


def _random_specs(rng, machines, count, max_steps, budgets=(3, 8, 30, 2000)):
    for _ in range(count):
        abstract, refined = rng.choice(machines), rng.choice(machines)
        loc = rng.choice(("b1", "n1", "b2"))
        obs = ((loc, parse_term(loc, abstract.sig), parse_term(loc, refined.sig)),)
        # tight budgets truncate one side or both
        budget = rng.choice(budgets)
        yield RefinementSpec(abstract, refined, obs, (rng.randrange(1, max_steps + 1),
                                                      rng.randrange(1, max_steps + 1), budget))


def test_rulegen_pairs_agree_with_the_oracle():
    rng = random.Random(61)
    machines = [random_machine(rng, f"O{i}", depth=4) for i in range(40)]
    specs = list(_random_specs(rng, machines, 200, 4))
    # agents too, and deeper bounds, under the same truncating budgets
    machines += [random_agent_machine(rng, f"A{i}") for i in range(20)]
    specs += _random_specs(rng, machines, 200, 6)
    # and the budgets that most often cut a refined side after its first failing run
    specs += _random_specs(rng, machines, 100, 6, budgets=(8, 30))
    outcomes = []
    for spec in specs:
        verdict, (_, _, abstract_truncated, refined_truncated) = _assert_agrees(spec)[:2]
        outcomes.append((verdict, abstract_truncated, refined_truncated))
    for part in (outcomes[:200], outcomes[200:400], outcomes[400:]):
        assert {"Pass", "Fail", "BudgetExhausted"} <= {v for v, _, _ in part}
        assert sum(a or r for _, a, r in part) >= 20
    # a refined side cut by the budget can still hold the first failing run
    assert outcomes[200:].count(("Fail", False, True)) >= 3


def test_a_pass_builds_no_trace_and_observes_each_state_once(monkeypatch):
    def no_trace(*args):
        raise AssertionError("a passing check built a Trace")

    evaluated = Counter()

    def counting_eval(term, state, *rest):
        evaluated[id(term), content_key(state)] += 1
        return eval_term(term, state, *rest)

    monkeypatch.setattr(refine, "Trace", no_trace)
    monkeypatch.setattr(refine, "eval_term", counting_eval)
    for s in _chain_steps("chain_ok.refine"):
        spec = dataclasses.replace(s.spec, bounds=(7, 7, 10_000))
        evaluated.clear()
        assert isinstance(refine.check_refinement(spec), refine.Pass)
        assert set(evaluated.values()) == {1}
        (_, abstract_term, refined_term), = spec.observations
        for machine, term in ((spec.abstract, abstract_term), (spec.refined, refined_term)):
            oracle_runs, _ = refine_oracle.enumerate_runs(machine, 7, 10_000)
            states = {content_key(st) for run in oracle_runs for st in run.states}
            assert {k for t, k in evaluated if t == id(term)} == states
