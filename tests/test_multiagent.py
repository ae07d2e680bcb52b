import hashlib
import itertools

import pytest

from conftest import load_model
from asmweave import state
from asmweave.errors import CallDepthExceeded
from asmweave.interp import (
    Inconsistent,
    Progressed,
    Resolver,
    ScriptedOrder,
    Synchronous,
    enumerate_steps,
    initial_state,
    run,
)
from asmweave.multiagent import Interleaving, explore, ma_run, ma_step
from asmweave.parser import parse_machine, parse_term
from asmweave.state import Location, controlled_digest
from asmweave.values import FALSE, TRUE, IntV, SymV, show_value

RING = load_model("ring3.asm")
RING_MUTANT = load_model("ring3_mutant.asm")
SWAP = load_model("swap.asm")

SAFETY = ("detected implies (active('m0) = false and active('m1) = false "
          "and active('m2) = false)")

TWO_AGENTS = parse_machine("""
machine Two
  controlled x, y
  rule A = x := 1
  rule B = y := 2
  main A
  agent a1 runs A
  agent a2 runs B
""")

SELF_CLASH = parse_machine("""
machine Clash
  controlled x
  rule C = x := self
  main C
  agent a1 runs C
  agent a2 runs C
""")

# recursion 1100 calls deep; the let keeps each call's argument a plain
# variable, so the substituted terms do not grow with the depth
DEEP = parse_machine("""
machine Deep
  controlled total/1
  rule Down(k) = let j = k - 1 in if j > 0 then Down(j) else total(self) := k
  rule Go = Down(1100)
  main Go
  agent a1 runs Go
  agent a2 runs Go
""")


def test_synchronous_disjoint_union():
    out = ma_step(TWO_AGENTS, initial_state(TWO_AGENTS), Synchronous(),
                  Resolver.seeded(0))
    assert isinstance(out, Progressed)
    s = out.next_state
    assert s.content[Location("x")] == IntV(1)
    assert s.content[Location("y")] == IntV(2)
    assert out.schedule == ("a1", "a2")


def test_synchronous_cross_agent_clash():
    out = ma_step(SELF_CLASH, initial_state(SELF_CLASH), Synchronous(),
                  Resolver.seeded(0))
    assert isinstance(out, Inconsistent)
    (loc, vals), = out.clashes
    assert loc == Location("x")
    assert vals == {SymV("a1"), SymV("a2")}


def test_interleaving_fires_one_agent():
    for seed in range(8):
        out = ma_step(SELF_CLASH, initial_state(SELF_CLASH), Interleaving(),
                      Resolver.seeded(seed))
        assert isinstance(out, Progressed)
        (aid,) = out.schedule
        assert out.next_state.content[Location("x")] == SymV(aid)


def test_synchronous_agent_order_invariance():
    agents = tuple(TWO_AGENTS.agents)
    results = []
    for perm in itertools.permutations(agents):
        out = ma_step(TWO_AGENTS, initial_state(TWO_AGENTS), Synchronous(),
                      Resolver.seeded(1), agents=perm)
        results.append(out.updates)
    assert all(r == results[0] for r in results)


def test_zero_agents_stall_immediately():
    t = ma_run(SWAP, Synchronous(), 5, agents=())
    assert t.outcome == "stalled" and t.steps == []


def test_interleaving_replay_is_identical():
    t = ma_run(SELF_CLASH, Interleaving(), 4, Resolver.seeded(5))
    order = tuple(st.schedule[0] for st in t.steps)
    t2 = ma_run(SELF_CLASH, ScriptedOrder(order), 4,
                Resolver.scripted(t.as_script()))
    assert t.digests() == t2.digests()


def test_scripted_order_runs_ring_to_detection():
    from asmweave.interp import ResEntry

    order = ("m1", "m1", "m0", "m2", "m2", "m1", "m0", "m2", "m1", "m0")
    script = [[] for _ in order]
    script[0] = [ResEntry("choose", "Step.choose1", "", SymV("send")),
                 ResEntry("choose", "Step.choose2", "", SymV("m2"))]
    script[1] = [ResEntry("choose", "Step.choose1", "", SymV("stop"))]
    script[3] = [ResEntry("choose", "Step.choose1", "", SymV("stop"))]
    t = ma_run(RING, ScriptedOrder(order), len(order),
               Resolver.scripted(script, fallback_seed=0))
    final = t.final_state
    assert final.content[Location("detected")] == TRUE
    for aid in ("m0", "m1", "m2"):
        assert final.content[Location("active", (SymV(aid),))] == FALSE


# ---------------------------------------------------------------------------
# Exploration


def test_explore_swap_two_states():
    rep = explore(SWAP, 2)
    assert rep.states_visited == 2


def test_explore_assertion_holds_on_swap():
    rep = explore(SWAP, 2, assertion=parse_term("a = 1 or a = 2", SWAP.sig))
    assert rep.counterexample is None


def test_explore_finds_shortest_counterexample():
    rep = explore(SWAP, 4, assertion=parse_term("a = 1", SWAP.sig))
    assert rep.counterexample is not None
    assert len(rep.counterexample.steps) == 1


def test_explore_determinism():
    a = explore(RING, 6, assertion=parse_term(SAFETY, RING.sig))
    b = explore(RING, 6, assertion=parse_term(SAFETY, RING.sig))
    assert a.states_visited == b.states_visited
    assert (a.counterexample is None) == (b.counterexample is None)


def test_explore_ring_safety_and_mutant_violation():
    ok = explore(RING, 12, assertion=parse_term(SAFETY, RING.sig))
    assert ok.counterexample is None
    bad = explore(RING_MUTANT, 12, assertion=parse_term(SAFETY, RING_MUTANT.sig))
    assert bad.counterexample is not None
    # the violating state has detection declared while some agent is active
    final = bad.violating_state
    assert final.content[Location("detected")] == TRUE
    assert any(final.content.get(Location("active", (SymV(a),))) == TRUE
               for a in ("m0", "m1", "m2"))


def test_explore_full_reachability_of_ring_is_safe():
    rep = explore(RING, 100, assertion=parse_term(SAFETY, RING.sig))
    assert rep.complete, "state space should reach a fixpoint"
    assert rep.counterexample is None


def test_ring_of_five_safe_within_bounded_depth():
    ring5 = load_model("ring5.asm")
    safety5 = ("detected implies (" + " and ".join(
        f"active('m{i}) = false" for i in range(5)) + ")")
    rep = explore(ring5, 5, assertion=parse_term(safety5, ring5.sig))
    assert rep.counterexample is None
    assert rep.states_visited > 100


def _is_not(s, sig):
    """A term false in exactly the states that agree with `s` on its content."""
    return parse_term("not (" + " and ".join(f"{loc.show()} = {show_value(v)}"
                                             for loc, v in s.content.items()) + ")", sig)


def test_explore_subsumes_seeded_sampling():
    # every state a seeded run reaches in k steps, explore reaches within k
    for seed in range(10):
        t = ma_run(RING, Interleaving(), 5, Resolver.seeded(seed))
        for k, s in enumerate(t.states):
            rep = explore(RING, k, assertion=_is_not(s, RING.sig))
            assert rep.violating_state == s


def test_explore_dedup_survives_digest_collisions(monkeypatch):
    # every state digests alike; exact state keys still tell them apart
    monkeypatch.setattr(state, "controlled_digest", lambda s: "0" * 16)
    held = explore(RING, 12, assertion=parse_term(SAFETY, RING.sig))
    assert held.states_visited == 199 and held.counterexample is None
    bad = explore(RING_MUTANT, 12, assertion=parse_term(SAFETY, RING_MUTANT.sig))
    assert len(bad.counterexample.steps) == 6


def test_search_results_are_pinned():
    # recorded before explore and refinement shared one state expansion,
    # again when a FAIL came to print a run cut by its step bound `[bound]`,
    # and again when the refinement budget came to cap graph nodes rather
    # than charge the run tree, which turned G149~G11's BUDGET into a FAIL;
    # any change to a state count, a verdict or an exported trace changes it
    from search_corpus import results

    digest = hashlib.sha256("\n".join(results()).encode("utf-8")).hexdigest()
    assert digest == "6ddc75424ac2830f5803cc091d35da436143fa12775e7c13722711e43ce4a5a1"


def test_explore_counterexample_replays():
    rep = explore(RING_MUTANT, 12,
                  assertion=parse_term(SAFETY, RING_MUTANT.sig))
    trace = rep.counterexample
    order = tuple(st.schedule[0] for st in trace.steps)
    replay = ma_run(RING_MUTANT, ScriptedOrder(order), len(order),
                    Resolver.scripted(trace.as_script()))
    assert controlled_digest(replay.final_state) == controlled_digest(rep.violating_state)


def test_interleaving_probe_honours_call_depth(call_depth):
    # DEEP nests 1100 calls: every path that evaluates a rule, the
    # interleaving scheduler's `_can_progress` probe included, reads one bound
    evaluations = (
        lambda: run(DEEP, 1, Resolver.seeded(0)),
        lambda: ma_run(DEEP, Synchronous(), 1, Resolver.seeded(0)),
        lambda: ma_run(DEEP, Interleaving(), 1, Resolver.seeded(0)),
        lambda: explore(DEEP, 1),
        lambda: enumerate_steps(initial_state(DEEP), DEEP, "Go", agent="a1"),
    )
    for bound in (7, 1099):
        call_depth(bound)
        for evaluate in evaluations:
            with pytest.raises(CallDepthExceeded,
                               match=f"^4:49: call depth {bound} exceeded at 'Down'$"):
                evaluate()
    call_depth(2000)
    run_, sync, interleaved, explored, outcomes = (evaluate() for evaluate in evaluations)
    for t in (run_, sync, interleaved):
        assert t.outcome == "budget" and len(t.steps) == 1
    assert explored.states_visited == 3 and len(outcomes) == 1
