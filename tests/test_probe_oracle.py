"""The replaying enumerator `interp._probe` yields exactly what the
fork-and-restart enumerator in `interp_oracle` yields: the same
(update set, resolutions) sequence in the same order and, where it stops,
the same error class, message and position, BranchBudgetExceeded
included. And it starts one evaluation per yield."""
import random

import interp_oracle
from conftest import MODELS, load_model
from rulegen import random_machine, random_par_machine
from test_interp_oracle import CALLS, RUNAWAY, probe_results, visit_reachable
from asmweave import interp
from asmweave.interp import Resolver, agents_of, initial_state, rule_body
from asmweave.parser import parse_machine

BOUNDS = (1, 2, 3, 5, 10_000)

# each agent fails on one resolution, after two that succeed: through an
# unhinted abstract function, a non-boolean guard and a range not a set
FAILING = """
machine Failing
  controlled a, n, f/1
  abstract g/1
  rule Abs = par
      choose x in {1, 2, 3} do f(x) := x
      choose y in {1, 2, 3} do if y = 1 then a := g(y) else a := y
    endpar
  rule Guard = par
      choose x in {1, 2, 3} do f(x) := x
      choose y in {1, 2, 3} do if y = 1 then (if n then a := 1) else a := y
    endpar
  rule Range = par
      choose x in {1, 2, 3} do f(x) := x
      choose y in {1, 2, 3} do if y = 1 then (forall z in n do a := z) else a := y
    endpar
  init { n := 0 }
  main Abs
  agent a1 runs Abs
  agent a2 runs Guard
  agent a3 runs Range
"""


def _compare(machine, errors: set):
    """A `visit_reachable` callback comparing both enumerators at every
    bound and adding the errors met to `errors`."""
    def compared(state, aid, body):
        for bound in BOUNDS:
            got = probe_results(body, state, machine, aid, bound)
            assert got == probe_results(body, state, machine, aid, bound,
                                        interp_oracle.probe)
            errors.update(item[1] for item in got if item[0] == "error")
        return got
    return compared


def test_rulegen_probes_agree_with_fork_and_restart():
    rng = random.Random(909)
    states, errors = 0, set()
    for i in range(200):
        make = random_machine if i % 2 else random_par_machine
        machine = make(rng, f"R{i}")
        states += visit_reachable(machine, 4, _compare(machine, errors))
    assert states > 300
    assert "BranchBudgetExceeded" in errors


def test_bundled_and_failing_machines_agree_with_fork_and_restart(call_depth):
    machines = [load_model(p.name) for p in sorted(MODELS.glob("*.asm"))]
    machines += [parse_machine(CALLS), parse_machine(RUNAWAY), parse_machine(FAILING)]
    errors: set = set()
    call_depth(40)
    for machine in machines:
        visit_reachable(machine, 3, _compare(machine, errors))
    assert {"BranchBudgetExceeded", "CallDepthExceeded", "UnboundedAbstract",
            "GuardNotBoolean", "RangeNotSet"} <= errors


def test_probe_starts_one_evaluation_per_yield(monkeypatch):
    begun = [0]
    begin_step = Resolver.begin_step

    def counting(self, state):
        begun[0] += 1
        return begin_step(self, state)

    monkeypatch.setattr(Resolver, "begin_step", counting)
    rng = random.Random(31)
    machines = [random_machine(rng, f"E{i}") for i in range(40)]
    machines += [load_model("ring5.asm"), load_model("choose_out.asm"), load_model("coin.asm")]
    yields = 0
    for machine in machines:
        state = initial_state(machine)
        for aid, rule in agents_of(machine):
            yields += sum(1 for _ in interp._probe(rule_body(machine, rule), state, machine,
                                                   10_000, aid))
    assert yields > 2 * len(machines)  # most evaluations drew something
    assert begun[0] == yields
