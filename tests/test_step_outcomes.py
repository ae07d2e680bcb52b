"""Step outcomes are decided once, successors are fired once, and trace
digests are derived from the recorded states."""
import hashlib
import json
import random

from conftest import MODELS, load_model
from rulegen import random_machine
from asmweave.interp import (
    SELF_LOC,
    Progressed,
    Resolver,
    enumerate_steps,
    export_trace_jsonl,
    initial_state,
    run,
)
from asmweave.multiagent import AgentSet, Interleaving, Synchronous, explore, ma_run
from asmweave.parser import parse_term
from asmweave.refine import Fail, RefinementSpec, check_chain, check_refinement
from asmweave.state import Location, fire, state_digest
from asmweave.values import show_value

SAFETY = ("detected implies (active('m0) = false and active('m1) = false "
          "and active('m2) = false)")


def _sha256(trace) -> str:
    return hashlib.sha256(export_trace_jsonl(trace).encode("utf-8")).hexdigest()


def _check_digests(trace) -> None:
    exported = [json.loads(line)["digest"]
                for line in export_trace_jsonl(trace).splitlines()]
    assert len(exported) == len(trace.steps)
    assert exported == [state_digest(trace.states[k]) for k in range(len(exported))]
    assert trace.digests() == exported + [state_digest(trace.final_state)]
    # states[k] is the pre-state of step k
    for k in range(len(trace.states) - 1):
        assert fire(trace.states[k], trace.steps[k].updates) == trace.states[k + 1]


def test_counterexample_exports_are_pinned():
    # the exported bytes of both bundled counterexamples, as the CLI writes
    # them with --trace
    mutant = load_model("ring3_mutant.asm")
    report = explore(mutant, 12, assertion=parse_term(SAFETY, mutant.sig))
    assert _sha256(report.counterexample) == (
        "dc598201ed27f897079c1c603bc5b961cfbd6ea678a5f7d725c806b89ee4fbe8")
    (fail,) = [v for _, v in check_chain(MODELS / "chains" / "chain_broken.refine")
               if isinstance(v, Fail)]
    assert _sha256(fail.counterexample) == (
        "8fd8ded02f716fbc51cf841b000e0c8abe714397685efc2cbdd2ac8e62ae21d4")


def _agent_successors(machine, state) -> list:
    """Every agent's progressed outcomes, checked to be fired on `state`."""
    out = []
    for aid, rule in AgentSet.of(machine).agents:
        for res in enumerate_steps(state, machine, rule, agent=aid):
            if isinstance(res, Progressed):
                assert res.next_state == fire(state, res.fired)
                assert SELF_LOC not in res.next_state.content
                out.append(res.next_state)
    return out


def test_agent_successors_fire_on_the_shared_state():
    rng = random.Random(41)
    starts = [(m, initial_state(m))
              for m in (random_machine(rng, f"S{i}", depth=4) for i in range(60))]
    ring = load_model("ring3.asm")
    frontier = [initial_state(ring)]
    for _ in range(3):  # ring3 states up to depth 3
        starts += [(ring, s) for s in frontier]
        frontier = [n for s in frontier for n in _agent_successors(ring, s)]
    assert sum(len(_agent_successors(m, s)) for m, s in starts) > len(starts)


def test_trace_digests_come_from_states():
    rng = random.Random(43)
    machines = [random_machine(rng, f"D{i}", depth=4) for i in range(30)]
    for k, m in enumerate(machines):
        _check_digests(run(m, 8, Resolver.seeded(k)))
        _check_digests(ma_run(m, Synchronous(), 8, Resolver.seeded(k)))
        _check_digests(ma_run(m, Interleaving(), 8, Resolver.seeded(k)))
        for loc in ("b1", "n1"):  # violated once the location first changes
            init = show_value(initial_state(m).content[Location(loc)])
            report = explore(m, 4, assertion=parse_term(f"{loc} = {init}", m.sig))
            if report.counterexample is not None:
                _check_digests(report.counterexample)
        other = machines[(k + 1) % len(machines)]
        obs = (("b1", parse_term("b1", other.sig), parse_term("b1", m.sig)),)
        verdict = check_refinement(RefinementSpec(other, m, obs, (3, 3, 2000)))
        if isinstance(verdict, Fail):
            _check_digests(verdict.counterexample)
    ring = load_model("ring3.asm")
    _check_digests(ma_run(ring, Interleaving(), 20, Resolver.seeded(5)))
    mutant = load_model("ring3_mutant.asm")
    _check_digests(explore(mutant, 12,
                           assertion=parse_term(SAFETY, mutant.sig)).counterexample)
    for _, verdict in check_chain(MODELS / "chains" / "chain_broken.refine"):
        if isinstance(verdict, Fail):
            _check_digests(verdict.counterexample)
