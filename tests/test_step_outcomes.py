"""Step outcomes are decided once, successors are fired once, trace
digests are derived from the recorded states, and a machine without
agents is one anonymous agent to run, explore and refinement alike."""
import hashlib
import itertools
import json
import random

from conftest import MODELS, load_model
from rulegen import random_machine
from asmweave import interp
from asmweave.interp import (
    SELF_LOC,
    Interleaving,
    Progressed,
    ResEntry,
    Resolver,
    ScriptedOrder,
    Stalled,
    Synchronous,
    agents_of,
    enumerate_steps,
    export_trace_jsonl,
    initial_state,
    ma_step,
    run,
)
from asmweave.multiagent import explore, ma_run
from asmweave.parser import parse_machine, parse_term
from asmweave.refine import Fail, RefinementSpec, check_chain, check_refinement
from asmweave.state import Location, fire, state_digest
from asmweave.values import IntV, show_value

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
    for aid, rule in agents_of(machine):
        for res in enumerate_steps(state, machine, rule, agent=aid):
            if isinstance(res, Progressed):
                assert res.next_state == fire(state, res.updates)
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


# sha256 of the exports of `run` (`ma_run` synchronous, then interleaving,
# for a machine with agents) at seed 5 for 25 steps, recorded with the
# separate plain-machine step function that `run` used before it became
# `ma_run` of the anonymous agent
RUN_EXPORTS = {
    "accumulator.asm": "4438e5f97137eb58f41b9915b09d97e0dc1192eb58c30bb0dd255b96014d7c87",
    "choose_out.asm": "d26a8a4d3fa88e6c721291b3bdc5836167a2031e2c725c7d3f336254487f3cc4",
    "coin.asm": "c70fa3d105281aa4d5fe19123689cc142d205d78659d3f6e75de9e8baa45212e",
    "ring3.asm": "d10280c83b751527cf4584ffbf27400607407e1cf3c91c6438accdc1db261887",
    "ring3_mutant.asm": "d10280c83b751527cf4584ffbf27400607407e1cf3c91c6438accdc1db261887",
    "ring5.asm": "2e3d550633a336746785eb1c0de9798522992331fe3f7ac25baf9e2cd7d621c0",
    "round_robin.asm": "9991fc6a91b96f064369324c8e8139733bbd964b9bd69e110043c30915dfef0e",
    "rr_broken.asm": "9031ff800a0b0e00bad97399e2ad75c3ec44cbdbffc1cfffbc0b4b6971520b4d",
    "rr_stutter.asm": "803a9d9befb66d2152014045c65b325dcbfbcd08c5654de169724f7e1835c0b8",
    "rr_table.asm": "a1000d3e5f1ff5fe812de72c666cc4863ab95c949afde949ec301c86ec03e00b",
    "swap.asm": "033b8621bfcf442ac9d19ee6bec99e8d255e0bc4d9d7839555defd4c80f2f8cc",
}
# the same for 50 rulegen machines (random.Random(47), depth 4), concatenated
RULEGEN_RUN_EXPORTS = "f12e2f9ff0b82da087400b2703d5520624b7604f08bb45da1fefa6d70b29a07d"


# accumulator stalls at once without input, so it is fed inc = 1..25
MONITORED = {"accumulator.asm": [[ResEntry("monitored", "inc", "", IntV(k))]
                                  for k in range(1, 26)]}


def _run_exports(machine, monitored=()) -> str:
    def resolver():
        return Resolver.scripted(monitored, fallback_seed=5)
    if machine.agents:
        traces = [ma_run(machine, s, 25, resolver()) for s in (Synchronous(), Interleaving())]
    else:
        traces = [run(machine, 25, resolver())]
    return "".join(export_trace_jsonl(t) for t in traces)


def test_run_exports_are_pinned():
    exports = {f.name: _run_exports(load_model(f.name), MONITORED.get(f.name, ()))
               for f in sorted(MODELS.glob("*.asm"))}
    assert all(exports.values())
    assert {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in exports.items()} == RUN_EXPORTS
    rng = random.Random(47)
    text = "".join(_run_exports(random_machine(rng, f"P{i}", depth=4)) for i in range(50))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RULEGEN_RUN_EXPORTS


def _assert_replays(machine, cx) -> None:
    replay = run(machine, len(cx.steps), Resolver.scripted(cx.as_script()))
    assert replay.digests() == cx.digests()
    assert all(st.schedule == () for st in cx.steps)


def test_plain_machine_counterexamples_replay():
    for name, cond in (("choose_out.asm", "out != 3"), ("coin.asm", "heads != true")):
        m = load_model(name)
        report = explore(m, 3, assertion=parse_term(cond, m.sig))
        assert len(report.counterexample.steps) == 1
        _assert_replays(m, report.counterexample)
    rng = random.Random(53)
    with_draws = 0
    for i in range(120):
        m = random_machine(rng, f"R{i}", depth=4)
        init = initial_state(m)
        # violated once any of the four scalar locations first changes
        cond = " and ".join(f"{loc} = {show_value(init.content[Location(loc)])}"
                            for loc in ("b1", "b2", "n1", "n2"))
        cx = explore(m, 4, assertion=parse_term(cond, m.sig)).counterexample
        if cx is not None:
            _assert_replays(m, cx)
            with_draws += any(st.resolutions for st in cx.steps)
    assert with_draws >= 10


def test_lone_anonymous_agent_interleaves_without_a_pick(monkeypatch):
    def no_probe(*args, **kwargs):
        raise AssertionError("the lone anonymous agent was probed")

    monkeypatch.setattr(interp, "_can_progress", no_probe)
    for name in ("choose_out.asm", "coin.asm"):
        m = load_model(name)
        trace = ma_run(m, Interleaving(), 4, Resolver.seeded(1))
        exported = export_trace_jsonl(trace)
        assert len(trace.steps) == 4 and '"kind":"schedule"' not in exported
        # the same step as `run` takes, and it replays under either
        assert exported == export_trace_jsonl(run(m, 4, Resolver.seeded(1)))
        script = trace.as_script()
        replay = ma_run(m, Interleaving(), 4, Resolver.scripted(script))
        assert export_trace_jsonl(replay) == exported
        assert run(m, 4, Resolver.scripted(script)).digests() == trace.digests()
    # a draw that yields no updates stalls, as under `run`, even though
    # another draw would have made progress
    m = parse_machine("machine M controlled a rule Main = "
                      "choose x in {0, 1} do if x = 1 then a := x main Main")
    for seed in range(6):
        trace = ma_run(m, Interleaving(), 3, Resolver.seeded(seed))
        plain = run(m, 3, Resolver.seeded(seed))
        assert (trace.outcome, export_trace_jsonl(trace)) == (
            plain.outcome, export_trace_jsonl(plain))


# each agent moves only when the monitored input m is 1
INPUT_AGENTS = """
machine Input
  monitored m
  controlled x, y
  rule A = if m = 1 then x := 1
  rule B = if m = 1 then y := 1
  main A
"""


def _pinned(outcome) -> tuple:
    draws = tuple(f"{e.kind} {e.label} = {show_value(e.value)}" for e in outcome.resolutions)
    if isinstance(outcome, Stalled):
        return ("stalled", draws)
    shown = lambda pairs: ", ".join(sorted(f"{loc.show()} = {show_value(v)}"
                                           for loc, v in pairs))
    return (type(outcome).__name__.lower(), shown(outcome.next_state.content.items()),
            shown((u.loc, u.val) for u in outcome.updates), outcome.schedule, draws)


def test_scheduler_outcomes_are_pinned():
    """`ma_step`'s outcome under each scheduler when monitored input alone
    moves the state, and when nothing moves."""
    with_agents = parse_machine(INPUT_AGENTS + "agent a1 runs A\nagent a2 runs B\n")
    anonymous = parse_machine(INPUT_AGENTS)
    schedulers = {"sync": Synchronous(), "interleave": Interleaving(),
                  "order": ScriptedOrder(("a1",))}
    inputs = {"m := 5": [ResEntry("monitored", "m", "", IntV(5))], "none": [],
              "m := 1": [ResEntry("monitored", "m", "", IntV(1))]}
    got = {}
    for (mname, m), (sname, sched), (iname, script) in itertools.product(
            (("agents", with_agents), ("anonymous", anonymous)),
            schedulers.items(), inputs.items()):
        if mname == "anonymous" and sname == "order":
            sched = ScriptedOrder(("",))
        resolver = Resolver.scripted([script], fallback_seed=0)
        got[mname, sname, iname] = _pinned(ma_step(m, initial_state(m), sched, resolver))
    m5, m1 = "monitored m = 5", "monitored m = 1"
    assert got == {
        # monitored input alone moves the state: a step that schedules every
        # agent, an explicit pick, or nobody under interleaving
        ("agents", "sync", "m := 5"): ("progressed", "m = 5", "", ("a1", "a2"), (m5,)),
        ("agents", "interleave", "m := 5"): ("progressed", "m = 5", "", (), (m5,)),
        ("agents", "order", "m := 5"): ("progressed", "m = 5", "", ("a1",), (m5,)),
        # nobody can move: only an explicitly scheduled agent stutters
        ("agents", "sync", "none"): ("stalled", ()),
        ("agents", "interleave", "none"): ("stalled", ()),
        ("agents", "order", "none"): ("progressed", "", "", ("a1",), ()),
        ("agents", "sync", "m := 1"): (
            "progressed", "m = 1, x = 1, y = 1", "x = 1, y = 1", ("a1", "a2"), (m1,)),
        ("agents", "interleave", "m := 1"): (
            "progressed", "m = 1, y = 1", "y = 1", ("a2",), (m1, "schedule sched = 'a2")),
        ("agents", "order", "m := 1"): ("progressed", "m = 1, x = 1", "x = 1", ("a1",), (m1,)),
        # the anonymous agent is never named in a schedule
        ("anonymous", "sync", "m := 5"): ("progressed", "m = 5", "", (), (m5,)),
        ("anonymous", "interleave", "m := 5"): ("progressed", "m = 5", "", (), (m5,)),
        ("anonymous", "order", "m := 5"): ("progressed", "m = 5", "", (), (m5,)),
        ("anonymous", "sync", "none"): ("stalled", ()),
        ("anonymous", "interleave", "none"): ("stalled", ()),
        ("anonymous", "order", "none"): ("progressed", "", "", (), ()),
        ("anonymous", "sync", "m := 1"): ("progressed", "m = 1, x = 1", "x = 1", (), (m1,)),
        ("anonymous", "interleave", "m := 1"): (
            "progressed", "m = 1, x = 1", "x = 1", (), (m1,)),
        ("anonymous", "order", "m := 1"): ("progressed", "m = 1, x = 1", "x = 1", (), (m1,)),
    }
