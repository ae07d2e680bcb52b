import gc
import itertools
import json
import random
import weakref

import pytest

from conftest import load_model, under_hash_seeds
from rulegen import random_machine, random_par_machine
from asmweave import interp
from asmweave.errors import (
    BranchBudgetExceeded,
    CallDepthExceeded,
    GuardNotBoolean,
    RangeNotSet,
    ScriptViolation,
    UnboundedAbstract,
    UnboundVariable,
)
from asmweave.interp import (
    Inconsistent,
    Progressed,
    ResEntry,
    Resolver,
    Stalled,
    enumerate_steps,
    enumerate_update_sets,
    eval_term,
    export_trace_jsonl,
    initial_state,
    run,
    step,
    update_set,
)
from asmweave.multiagent import _can_progress
from asmweave.parser import Par, parse_machine, parse_term, pp_term
from asmweave.state import Location, UpdateSet, conflicts
from asmweave.values import FALSE, TRUE, UNDEF, IntV, StrV, mkset

SWAP = load_model("swap.asm")
CHOICE = load_model("choose_out.asm")
COIN = load_model("coin.asm")


def us_pairs(us):
    return {(u.loc.fname, tuple(u.loc.args), u.val) for u in us.updates}


# ---------------------------------------------------------------------------
# Term evaluation


def test_eval_reads_location():
    s = initial_state(SWAP)
    assert eval_term(parse_term("a", SWAP.sig), s) == IntV(1)


def test_eval_strictness_and_total_equality():
    s = initial_state(SWAP)
    assert eval_term(parse_term("1 + undef", SWAP.sig), s) is UNDEF
    assert eval_term(parse_term("undef = undef", SWAP.sig), s) == TRUE


def test_eval_unbound_variable():
    from asmweave.parser import Var

    with pytest.raises(UnboundVariable):
        eval_term(Var("loose"), initial_state(SWAP))
    # bound variables resolve through the environment
    assert eval_term(Var("v"), initial_state(SWAP), {"v": IntV(7)}) == IntV(7)


# ---------------------------------------------------------------------------
# Update sets for the seven constructs


def test_par_swap_update_set():
    s = initial_state(SWAP)
    us = update_set(SWAP.declarations["Main"].body, s, machine=SWAP)
    assert us_pairs(us) == {("a", (), IntV(2)), ("b", (), IntV(1))}


def test_if_false_yields_empty():
    m = parse_machine("machine M controlled x rule R = if false then x := 1 main R")
    assert len(update_set(m.declarations["R"].body, initial_state(m), machine=m)) == 0


def test_forall_with_guard():
    m = parse_machine(
        "machine M controlled f/1 rule R = forall x in {1, 2, 3} with x > 1 do f(x) := 0 main R")
    us = update_set(m.declarations["R"].body, initial_state(m), machine=m)
    assert us_pairs(us) == {("f", (IntV(2),), IntV(0)), ("f", (IntV(3),), IntV(0))}


def test_choose_empty_satisfying_set_is_empty_update():
    m = parse_machine(
        "machine M controlled x rule R = choose v in {} do x := v main R")
    us = update_set(m.declarations["R"].body, initial_state(m),
                    resolver=Resolver.seeded(0), machine=m)
    assert len(us) == 0


def test_choose_guard_filters_candidates():
    m = parse_machine(
        "machine M controlled x rule R = choose v in {1, 2, 3, 4} with v > 3 do x := v main R")
    for seed in range(20):
        us = update_set(m.declarations["R"].body, initial_state(m),
                        resolver=Resolver.seeded(seed), machine=m)
        assert us_pairs(us) == {("x", (), IntV(4))}


def test_let_binds_value():
    m = parse_machine(
        "machine M controlled x, n rule R = let v = n + 1 in x := v * 2 init { n := 3 } main R")
    us = update_set(m.declarations["R"].body, initial_state(m), machine=m)
    assert us_pairs(us) == {("x", (), IntV(8))}


def test_call_by_name_reevaluates_argument_terms():
    # R's formal is used under a forall binder; each use re-evaluates
    src = """
machine M
  controlled f/1, n
  rule R(t) = forall i in {0 .. 1} do f(i) := t + i
  rule Main = R(n * 10)
  init { n := 1 }
  main Main
"""
    m = parse_machine(src)
    us = update_set(m.declarations["Main"].body, initial_state(m), machine=m)
    assert us_pairs(us) == {("f", (IntV(0),), IntV(10)), ("f", (IntV(1),), IntV(11))}


def test_call_substitution_is_capture_avoiding():
    src = """
machine M
  controlled f/1
  rule R(a) = forall x in {0 .. 2} with x = a do f(x) := 9
  rule Main = forall x in {0 .. 2} with x = 1 do R(x)
  main Main
"""
    m = parse_machine(src)
    us = update_set(m.declarations["Main"].body, initial_state(m), machine=m)
    # without renaming, the inner guard would collapse to x = x and fire thrice
    assert us_pairs(us) == {("f", (IntV(1),), IntV(9))}


def test_guard_undef_is_an_error_not_false():
    m = parse_machine("machine M controlled x, c rule R = if c then x := 1 main R")
    with pytest.raises(GuardNotBoolean):
        update_set(m.declarations["R"].body, initial_state(m), machine=m)


def test_range_must_be_a_set():
    m = parse_machine("machine M controlled x rule R = forall v in 5 do x := v main R")
    with pytest.raises(RangeNotSet):
        update_set(m.declarations["R"].body, initial_state(m), machine=m)


def test_call_depth_bound(call_depth):
    call_depth(25)
    m = parse_machine("machine M controlled x rule Loop = Loop() rule Main = Loop() main Main")
    with pytest.raises(CallDepthExceeded):
        update_set(m.declarations["Main"].body, initial_state(m), machine=m)


def test_let_call_coherence():
    # same body used through let and through a one-formal rule call
    src = """
machine M
  controlled out/1, res, n
  rule Body(x) = par out(x) := x * 2  res := x endpar
  rule UseLet = let x = n + 1 in par out(x) := x * 2  res := x endpar
  rule UseCall = Body(n + 1)
  init { n := 2 }
  main UseLet
"""
    m = parse_machine(src)
    s = initial_state(m)
    us1 = update_set(m.declarations["UseLet"].body, s, machine=m)
    us2 = update_set(m.declarations["UseCall"].body, s, machine=m)
    assert us1 == us2


def test_choose_labels_in_a_callee_are_pinned(monkeypatch):
    # the suffix hashes the printed arguments; it is part of the trace format
    m = parse_machine("""
machine M
  controlled a, b
  rule Set(x) = a := x
  rule Two(s, t) = par choose v in s do a := v choose w in t with w > a do b := w endpar
  rule Main = par Two({1, 2}, {a .. 3}) Set(a + 1) endpar
  init { a := 1 }
  main Main
""")
    printed = []
    monkeypatch.setattr(interp, "pp_term", lambda t: printed.append(t) or pp_term(t))
    trace = run(m, 1, Resolver.seeded(4))
    assert [e.key for e in trace.steps[0].resolutions] == [
        "choose:Two.choose1~05d40ec3|#0", "choose:Two.choose2~05d40ec3|#0"]
    # printed once for both chooses of Two, never for the choose-free Set
    assert [pp_term(t) for t in printed] == ["{1, 2}", "{a .. 3}"]


# ---------------------------------------------------------------------------
# Steps and runs


def test_step_swap_progresses():
    s = initial_state(SWAP)
    r = step(s, SWAP, "Main", Resolver.seeded(0))
    assert isinstance(r, Progressed)
    assert r.next_state.content[Location("a")] == IntV(2)
    assert r.next_state.content[Location("b")] == IntV(1)


def test_step_skip_stalls():
    m = parse_machine("machine M controlled x rule R = skip main R")
    assert isinstance(step(initial_state(m), m, "R", Resolver.seeded(0)), Stalled)


def test_step_clash_is_inconsistent():
    m = parse_machine("machine M controlled x rule R = par x := 1 x := 2 endpar main R")
    r = step(initial_state(m), m, "R", Resolver.seeded(0))
    assert isinstance(r, Inconsistent)
    assert r.clashes[0][0] == Location("x")
    assert r.clashes[0][1] == {IntV(1), IntV(2)}


def test_run_swap_one_and_two_steps():
    t1 = run(SWAP, 1)
    assert t1.final_state.content[Location("a")] == IntV(2)
    t2 = run(SWAP, 2)
    assert t2.final_state.content[Location("a")] == IntV(1)
    assert t2.final_state.content[Location("b")] == IntV(2)


def test_run_zero_steps_is_initial():
    t = run(SWAP, 0)
    assert t.steps == [] and t.final_state == initial_state(SWAP)
    assert t.outcome == "budget"


def test_run_records_inconsistent_outcome():
    m = parse_machine("machine M controlled x rule R = par x := 1 x := 2 endpar main R")
    t = run(m, 5)
    assert t.outcome == "inconsistent"
    assert len(t.steps) == 1


def test_monitored_injection_and_stall_semantics():
    m = load_model("accumulator.asm")
    mon = [[ResEntry("monitored", "inc", "", IntV(2))],
           [ResEntry("monitored", "inc", "", IntV(3))], []]
    t = run(m, 5, Resolver.scripted(mon, fallback_seed=0))
    # step 3 re-adds the stale input 3; step 4 stalls only if nothing changes
    assert t.states[1].content[Location("total")] == IntV(2)
    assert t.states[2].content[Location("total")] == IntV(5)


def test_monitored_change_alone_counts_as_progress():
    m = parse_machine(
        "machine M monitored inp controlled x rule R = if inp = 99 then x := 1 main R")
    mon = [[ResEntry("monitored", "inp", "", IntV(5))]] * 2
    t = run(m, 5, Resolver.scripted(mon, fallback_seed=0))
    # step 1 injects 5 (progress, no updates); step 2 injects same value -> stall
    assert t.outcome == "stalled"
    assert len(t.steps) == 1
    assert len(t.steps[0].updates) == 0


# ---------------------------------------------------------------------------
# Resolvers: determinism, scripts, replay


def test_seeded_determinism():
    for seed in (0, 1, 7):
        a = run(CHOICE, 6, Resolver.seeded(seed))
        b = run(CHOICE, 6, Resolver.seeded(seed))
        assert a.digests() == b.digests()
        assert [s.resolutions for s in a.steps] == [s.resolutions for s in b.steps]


def test_replay_reproduces_trace():
    t = run(CHOICE, 6, Resolver.seeded(11))
    t2 = run(CHOICE, 6, Resolver.scripted(t.as_script()))
    assert t.digests() == t2.digests()
    assert export_trace_jsonl(t) == export_trace_jsonl(t2)


def test_replay_reads_monitored_locations_with_any_arguments():
    m = parse_machine("""
machine In
  monitored inp/1
  controlled x, y, z
  rule R = par x := inp(-1) y := inp({1, 2}) z := inp("a \\"b\\"\\n") endpar
  main R
""")
    args = [IntV(-1), mkset([IntV(1), IntV(2)]), StrV('a "b"\n')]
    monitored = [[ResEntry("monitored", Location("inp", (a,)).show(), "", IntV(10 * k + i))
                  for i, a in enumerate(args)] for k in range(3)]
    t = run(m, 3, Resolver.scripted(monitored, fallback_seed=0))
    t2 = run(m, 3, Resolver.scripted(t.as_script()))
    assert t2.final_state.content[Location("z")] == IntV(22)
    assert t.digests() == t2.digests()
    assert export_trace_jsonl(t) == export_trace_jsonl(t2)


def test_scripted_without_fallback_errors_when_exhausted():
    with pytest.raises(ScriptViolation):
        run(CHOICE, 3, Resolver.scripted([]))


def test_scripted_value_must_satisfy_guard():
    m = parse_machine(
        "machine M controlled x rule R = choose v in {1, 2} with v > 1 do x := v main R")
    bad = [[ResEntry("choose", "R.choose1", "", IntV(1))]]
    with pytest.raises(ScriptViolation):
        run(m, 1, Resolver.scripted(bad))


def test_scripted_by_label():
    script = [[ResEntry("choose", "Main.choose1", "", IntV(3))],
              [ResEntry("choose", "Main.choose1", "", IntV(1))]]
    t = run(CHOICE, 2, Resolver.scripted(script))
    assert t.states[1].content[Location("out")] == IntV(3)
    assert t.states[2].content[Location("out")] == IntV(1)


def test_chosen_values_recorded_and_satisfy_guard():
    m = parse_machine(
        "machine M controlled x rule R = choose v in {1, 2, 3, 4} with v > 2 do x := v main R")
    for seed in range(30):
        t = run(m, 1, Resolver.seeded(seed))
        (entry,) = [e for e in t.steps[0].resolutions if e.kind == "choose"]
        assert entry.value in (IntV(3), IntV(4))


def test_abstract_draws_cached_per_step_and_scripted():
    # two reads of the same abstract location in one step agree
    m = parse_machine("""
machine M
  abstract flip
  controlled x, y
  rule R = par x := flip  y := flip endpar
  main R
""")
    for seed in range(10):
        t = run(m, 1, Resolver.seeded(seed))
        s = t.final_state
        assert s.content.get(Location("x"), UNDEF) == s.content.get(Location("y"), UNDEF)
    script = [[ResEntry("abstract", "flip", "", FALSE)]]
    t = run(m, 1, Resolver.scripted(script, fallback_seed=0))
    assert t.final_state.content.get(Location("x"), UNDEF) == FALSE


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def test_enumerate_two_branches():
    m = parse_machine("machine M controlled y rule R = choose x in {1, 2} do y := x main R")
    results = enumerate_steps(initial_state(m), m, "R")
    assert len(results) == 2
    outs = {r.next_state.content[Location("y")] for r in results}
    assert outs == {IntV(1), IntV(2)}


def test_enumerate_deterministic_rule_is_singleton():
    assert len(enumerate_steps(initial_state(SWAP), SWAP, "Main")) == 1


def test_enumerate_budget_exceeded():
    m = parse_machine(
        "machine M controlled f/1 rule R = forall x in {1 .. 5} do choose y in {1 .. 5} do f(x) := y main R")
    with pytest.raises(BranchBudgetExceeded):
        enumerate_steps(initial_state(m), m, "R", bound=10)
    assert len(enumerate_steps(initial_state(m), m, "R", bound=5000)) == 5 ** 5


def test_enumerate_update_sets_counts():
    m = parse_machine("machine M controlled y rule R = choose x in {1, 2} do y := x main R")
    sets = enumerate_update_sets(m.declarations["R"].body, initial_state(m), m)
    assert len(sets) == 2


def test_enumerate_update_sets_order_ignores_the_hash_seed():
    code = """
        from asmweave.interp import enumerate_update_sets, initial_state
        from asmweave.parser import parse_machine
        m = parse_machine('machine M controlled a, b, c '
                          'rule R = choose x in {1, 2} do par a := x b := x c := x endpar main R')
        sets = enumerate_update_sets(m.declarations['R'].body, initial_state(m), m)
        print([[f'{u.loc.show()}={u.val.n}' for u in us] for us in sets])
    """
    assert under_hash_seeds(code) == {"[['a=1', 'b=1', 'c=1'], ['a=2', 'b=2', 'c=2']]\n"}


def test_enumerate_abstract_without_hint():
    # arity-0 abstract defaults to {false, true}
    results = enumerate_steps(initial_state(COIN), COIN, "Main")
    assert len(results) == 2
    m = parse_machine(
        "machine M abstract g/1 controlled x rule R = x := g(1) main R")
    with pytest.raises(UnboundedAbstract):
        enumerate_steps(initial_state(m), m, "R")


def test_exhaustive_seed_coherence_on_choice():
    enumerated = {r.next_state.content[Location("out")]
                  for r in enumerate_steps(initial_state(CHOICE), CHOICE, "Main")}
    sampled = set()
    for seed in range(300):
        r = step(initial_state(CHOICE), CHOICE, "Main", Resolver.seeded(seed))
        sampled.add(r.next_state.content[Location("out")])
    assert sampled <= enumerated
    assert sampled == enumerated


def test_probe_consumers_agree_on_random_machines():
    # enumerate_steps, enumerate_update_sets and the interleaving progress
    # check read one probe loop; their answers must fit together
    rng = random.Random(23)
    for i in range(100):
        m = random_machine(rng, f"X{i}", depth=5)
        s0 = initial_state(m)
        sets = set(enumerate_update_sets(m.declarations["Main"].body, s0, m))
        outcomes = enumerate_steps(s0, m, "Main")
        fired = {r.updates for r in outcomes if isinstance(r, Progressed)}
        attempted = {r.updates for r in outcomes if isinstance(r, Inconsistent)}
        assert fired | attempted <= sets
        assert fired == {us for us in sets if len(us) > 0 and not conflicts(us)}
        stalled = any(isinstance(r, Stalled) for r in outcomes)
        assert stalled == (UpdateSet.empty() in sets)
        assert _can_progress(m, s0, "main", "Main") == any(len(us) > 0 for us in sets)


# ---------------------------------------------------------------------------
# Par order-independence and trace export


def test_par_permutation_invariance_random_rules():
    rng = random.Random(5)
    for i in range(25):
        m = random_par_machine(rng, f"P{i}")
        body = m.declarations["Main"].body
        s0 = initial_state(m)
        sets = []
        for perm in itertools.permutations(body.children):
            sets.append(update_set(Par(perm), s0, resolver=Resolver.seeded(3), machine=m))
        assert all(u == sets[0] for u in sets)


def test_trace_jsonl_format():
    t = run(CHOICE, 2, Resolver.seeded(4))
    lines = export_trace_jsonl(t).splitlines()
    assert len(lines) == 2
    for k, line in enumerate(lines):
        obj = json.loads(line)
        assert obj["step"] == k
        assert set(obj) == {"step", "updates", "resolutions", "digest"}
        assert obj["updates"][0]["f"] == "out"
        assert isinstance(obj["digest"], str)


def test_frame_across_progressed_steps():
    rng = random.Random(17)
    for i in range(10):
        m = random_machine(rng, f"F{i}")
        t = run(m, 3, Resolver.seeded(i))
        for k, st in enumerate(t.steps):
            if k + 1 >= len(t.states):
                break  # a final inconsistent step has no post-state
            pre, post = t.states[k], t.states[k + 1]
            touched = {u.loc for u in st.updates}
            keys = set(pre.content) | set(post.content)
            for loc in keys - touched:
                mon = m.sig.get(loc.fname)
                if mon is not None and mon.kind.value == "monitored":
                    continue
                assert pre.content.get(loc) == post.content.get(loc)


def test_a_machine_with_rule_calls_is_freed_without_the_garbage_collector():
    # a call site holds its machine weakly: the machine's tree is no cycle
    machine = parse_machine("machine M controlled x rule Inc(k) = x := x + k "
                            "rule Main = if x < 9 then Inc(1) init { x := 0 } main Main")
    assert len(run(machine, 5, Resolver.seeded(0)).steps) == 5
    body = weakref.ref(machine.declarations["Main"].body)
    gc.disable()
    try:
        del machine
        assert body() is None
    finally:
        gc.enable()
