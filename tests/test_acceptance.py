"""Acceptance criteria, one test per criterion, each printed as a PASS line
with its runtime. Run with `pytest tests/test_acceptance.py -v -s`.
"""
import itertools
import os
import random
import subprocess
import sys
import time

from conftest import MODELS, cli_env, load_model
from refine_oracle import observe
from rulegen import (
    pga_test_machine,
    pga_test_space,
    random_machine,
    random_par_machine,
    random_pga_rule,
)
from asmweave.errors import AsmError
from asmweave.interp import (
    Progressed,
    Resolver,
    ScriptedOrder,
    enumerate_steps,
    initial_state,
    run,
    step,
    update_set,
)
from asmweave.multiagent import Interleaving, explore, ma_run
from asmweave.normalform import equivalence_check, normalize
from asmweave.parser import (
    Assign,
    If,
    Par,
    parse_machine,
    parse_term,
    pretty_print,
)
from asmweave.refine import Fail, Pass, RefinementSpec, check_refinement
from asmweave.state import (
    FuncDecl,
    FunctionKind,
    Location,
    Signature,
    State,
    Update,
    UpdateSet,
    fire,
    lookup,
    state_digest,
)
from asmweave.values import IntV, SymV, TRUE


def report(n: int, description: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {n} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s < {limit:.0f}s) - {description}")


def test_criterion_1_swap_semantics():
    t0 = time.monotonic()
    swap = load_model("swap.asm")
    one = run(swap, 1)
    assert one.final_state.content[Location("a")] == IntV(2)
    assert one.final_state.content[Location("b")] == IntV(1)
    two = run(swap, 2)
    assert two.final_state.content[Location("a")] == IntV(1)
    assert two.final_state.content[Location("b")] == IntV(2)
    report(1, "swap swaps in one step and restores in two", t0, 1.0)


def test_criterion_2_par_order_independence():
    t0 = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    for i in range(200):
        machine = random_par_machine(rng, f"P{i}")
        body = machine.declarations["Main"].body
        state = initial_state(machine)
        reference = None
        for perm in itertools.permutations(body.children):
            us = update_set(Par(perm), state, resolver=Resolver.seeded(11),
                            machine=machine)
            if reference is None:
                reference = us
            else:
                assert us == reference, f"permutation changed update set on {i}"
            checked += 1
    report(2, f"par permutation invariance over 200 rules ({checked} evaluations)",
           t0, 30.0)


def test_criterion_3_normal_form_theorem():
    t0 = time.monotonic()
    bench = pga_test_machine()
    space = pga_test_space()
    rng = random.Random(7)
    for i in range(200):
        rule = random_pga_rule(rng, max_depth=4)
        nf = normalize(bench, rule)
        shaped = nf.to_rule()
        assert isinstance(shaped, Par)
        for clause in shaped.children:
            assert isinstance(clause, If) and clause.else_op is None
            assert isinstance(clause.then_op, Assign)
        verdict = equivalence_check(bench, rule, nf, space)
        assert verdict.passed, f"rule {i}: {verdict.left} != {verdict.right}"
    report(3, "200 random PGA rules equal their normal forms on the full space",
           t0, 60.0)


def test_criterion_4_frame_property():
    t0 = time.monotonic()
    sig = Signature((
        FuncDecl("p", 0, FunctionKind.CONTROLLED),
        FuncDecl("q", 0, FunctionKind.CONTROLLED),
        FuncDecl("g", 1, FunctionKind.CONTROLLED),
    ))
    locs = [Location("p"), Location("q")] + \
           [Location("g", (IntV(k),)) for k in range(4)]
    rng = random.Random(4)
    for _ in range(1000):
        content = {loc: IntV(rng.randrange(5)) for loc in locs if rng.random() < 0.6}
        state = State(sig, content)
        touched = [loc for loc in locs if rng.random() < 0.5]
        us = UpdateSet.of([Update(loc, IntV(rng.randrange(5))) for loc in touched])
        nxt = fire(state, us)
        for u in us.updates:
            assert lookup(nxt, u.loc) == u.val
        for loc in locs:
            if loc not in touched:
                assert lookup(nxt, loc) == lookup(state, loc)
    report(4, "1000 random consistent update sets leave other locations unchanged",
           t0, 5.0)


def test_criterion_5_exhaustive_seed_coherence():
    t0 = time.monotonic()
    for name in ("choose_out.asm", "coin.asm"):
        machine = load_model(name)
        start = initial_state(machine)
        enumerated = set()
        for res in enumerate_steps(start, machine, machine.main):
            assert isinstance(res, Progressed)
            enumerated.add(state_digest(res.next_state))
        assert len(enumerated) <= 4
        sampled = set()
        for seed in range(1000):
            res = step(start, machine, machine.main, Resolver.seeded(seed))
            sampled.add(state_digest(res.next_state))
        assert sampled <= enumerated, name
        assert sampled == enumerated, name
    report(5, "1000 seeded outcomes equal the exhaustive enumeration", t0, 10.0)


def _identity_spec(machine, bounds):
    controlled = [d for d in machine.sig.entries
                  if d.kind == FunctionKind.CONTROLLED and d.arity == 0]
    observations = tuple(
        (d.name, parse_term(d.name, machine.sig), parse_term(d.name, machine.sig))
        for d in controlled)
    return RefinementSpec(machine, machine, observations, bounds)


def test_criterion_6_refinement_checker():
    t0 = time.monotonic()
    # (a) reflexivity on every bundled machine
    for path in sorted(MODELS.glob("*.asm")):
        machine = parse_machine(path.read_text(encoding="utf-8"))
        bounds = (2, 2, 20_000) if machine.agents else (3, 3, 20_000)
        verdict = check_refinement(_identity_spec(machine, bounds))
        assert isinstance(verdict, Pass), f"reflexivity on {path.name}: {verdict}"
    # (b) choose-scheduler vs round-robin at bounds (3,3)
    choice, rr = load_model("choose_out.asm"), load_model("round_robin.asm")
    obs = (("out", parse_term("out", choice.sig), parse_term("out", rr.sig)),)
    assert isinstance(
        check_refinement(RefinementSpec(choice, rr, obs, (3, 3, 10_000))), Pass)
    # (c) broken refinement fails with a replayable counterexample
    broken = load_model("rr_broken.asm")
    obs2 = (("out", parse_term("out", choice.sig), parse_term("out", broken.sig)),)
    spec = RefinementSpec(choice, broken, obs2, (3, 3, 10_000))
    verdict = check_refinement(spec)
    assert isinstance(verdict, Fail)
    trace = verdict.counterexample
    replay = run(broken, len(trace.steps), Resolver.scripted(trace.as_script()))
    assert observe(replay, spec, "refined").tuples == verdict.observed.tuples
    report(6, "reflexivity, scheduler refinement, and a replayable failure", t0, 30.0)


def test_criterion_7_termination_detection():
    t0 = time.monotonic()
    safety = ("detected implies (active('m0) = false and active('m1) = false "
              "and active('m2) = false)")
    ring = load_model("ring3.asm")
    ok = explore(ring, 12, assertion=parse_term(safety, ring.sig))
    assert ok.counterexample is None
    mutant = load_model("ring3_mutant.asm")
    bad = explore(mutant, 12, assertion=parse_term(safety, mutant.sig))
    assert bad.counterexample is not None
    assert bad.violating_state.content[Location("detected")] == TRUE
    assert any(bad.violating_state.content.get(Location("active", (SymV(a),))) == TRUE
               for a in ("m0", "m1", "m2"))
    report(7, "ring-of-3 safety holds; the mutant yields a counterexample trace",
           t0, 120.0)


def test_criterion_8_determinism_replay():
    t0 = time.monotonic()
    machines = []
    for name in ("swap.asm", "coin.asm", "choose_out.asm", "round_robin.asm",
                 "rr_table.asm", "rr_stutter.asm", "rr_broken.asm",
                 "accumulator.asm"):
        machines.append(("single", load_model(name)))
    for name in ("ring3.asm", "ring3_mutant.asm"):
        machines.append(("multi", load_model(name)))
    rng = random.Random(8)
    for i in range(40):
        machines.append(("single", random_machine(rng, f"R{i}")))
    assert len(machines) == 50
    for k, (kind, machine) in enumerate(machines):
        if kind == "single":
            original = run(machine, 5, Resolver.seeded(k))
            replayed = run(machine, 5, Resolver.scripted(original.as_script()))
        else:
            original = ma_run(machine, Interleaving(), 5, Resolver.seeded(k))
            order = tuple(st.schedule[0] for st in original.steps if st.schedule)
            replayed = ma_run(machine, ScriptedOrder(order), 5,
                              Resolver.scripted(original.as_script()))
        assert original.digests() == replayed.digests(), f"machine {k}"
        assert original.outcome == replayed.outcome, f"machine {k}"
    report(8, "50 machines replay bit-identically from their own resolutions",
           t0, 10.0)


def test_criterion_9_parser_round_trip_and_fuzz():
    t0 = time.monotonic()
    for path in sorted(MODELS.glob("*.asm")):
        text = path.read_text(encoding="utf-8")
        machine = parse_machine(text)
        printed = pretty_print(machine)
        assert parse_machine(printed) == machine, path.name
        assert pretty_print(parse_machine(printed)) == printed, path.name
    swap_text = (MODELS / "swap.asm").read_text(encoding="utf-8")
    rng = random.Random(9)
    tokens = ["machine", "rule", "par", "endpar", "if", "then", "else", ":=",
              "init", "main", "agent", "{", "}", "(", ")", "'", '"', "0", "9",
              "x", ",", "=", "..", "//", "\n", " "]
    for i in range(100_000):
        mode = i % 3
        if mode == 0:
            text = rng.randbytes(rng.randrange(0, 64)).decode("latin-1")
        elif mode == 1:
            text = "".join(rng.choice(tokens) for _ in range(rng.randrange(0, 24)))
        else:
            cut = rng.randrange(0, len(swap_text))
            text = swap_text[:cut] + rng.choice(tokens) + swap_text[cut + 1:]
        try:
            parse_machine(text)
        except AsmError:
            pass
    report(9, "bundled machines round-trip; 100000 fuzz inputs never crash",
           t0, 60.0)


def test_criterion_10_cli_exit_contract(tmp_path):
    t0 = time.monotonic()

    def invoke(*args):
        return subprocess.run(
            [sys.executable, "-m", "asmweave", *[str(a) for a in args]],
            capture_output=True, text=True, env=cli_env()).returncode

    assert invoke("scenario", MODELS / "scenarios" / "green") == 0
    assert invoke("scenario", MODELS / "scenarios" / "mutant") == 1
    malformed = tmp_path / "bad.asm"
    malformed.write_text("machine ??", encoding="utf-8")
    assert invoke("run", malformed) == 2
    assert invoke("check-refine", MODELS / "chains" / "chain_ok.refine") == 0
    assert invoke("check-refine", MODELS / "chains" / "chain_broken.refine") == 1
    report(10, "exit statuses 0/1/2 on green, failing, and malformed inputs",
           t0, 60.0)
