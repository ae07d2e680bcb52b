"""The four benchmark workloads.

A workload's `setup(seed, workdir, load)` generates its inputs from the
seed, writes any files the commands read, parses and resolves every
generated machine and builds its initial state through `load`, a `Loader`,
and returns one round of commands.
The harness repeats that round, one command after another, until the run
time is used up.

Each command is an `Op`: `run()` issues one command through `cli.main`
in-process or through the library API in the README, and is the only part
that is timed; `check(result)` compares the result with a known answer,
raises `Wrong` on a mismatch, and returns the number of items the command
produced (distinct states, enumerated runs, fired steps, or 1 for a
command).

The program's modules are reached through their module objects
(`multiagent.explore`, not a name imported from it), so the traced run's
wrappers see every call the benchmark makes.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List

import asmweave.cli as cli
import asmweave.interp as interp
import asmweave.multiagent as multiagent
import asmweave.parser as parser
from asmweave.state import Location
from asmweave.values import IntV, SymV

import gen

MODELS = Path(interp.__file__).resolve().parent / "models"


class Wrong(Exception):
    """A command's output differs from its known answer."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], int]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def _cli(argv: List[str]):
    """Run one CLI command in-process; return (exit status, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    return status, out.getvalue()


class Loader:
    """Parses and resolves machines for a set-up, and sums the time the
    program spends on it. That sum is the set-up time: generating and
    writing the inputs is the benchmark's work, not the program's."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __call__(self, text: str):
        """Parse and resolve a machine and build its initial state."""
        t0 = time.perf_counter()
        machine = parser.parse_machine(text)
        init = interp.initial_state(machine)
        self.seconds += time.perf_counter() - t0
        return machine, init

    def term(self, text: str, sig):
        """Parse and resolve a term over a machine's signature."""
        t0 = time.perf_counter()
        term = parser.parse_term(text, sig)
        self.seconds += time.perf_counter() - t0
        return term


# ---------------------------------------------------------------------------
# explore-ring

# Distinct states of ring5.asm by explore depth. Depth 9 agrees with the
# 3,089 states recorded in ROADMAP.md; a renaming of agents keeps them.
RING5_STATES = {1: 7, 2: 40, 3: 146, 4: 369, 5: 721, 6: 1185, 7: 1743,
                8: 2387, 9: 3089}
RING5_DEPTH = 3
RING5_VARIANTS = 3
RING3_VARIANTS = 2
RING3_DEPTH = 12
RING3_STATES = 199  # README: ring3 with the safety assertion at depth 12
MUTANT_STEPS = 6  # README: ring3_mutant's counterexample has six steps


def setup_explore_ring(seed: int, workdir: Path, load: Loader) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    ring5 = (MODELS / "ring5.asm").read_text(encoding="utf-8")
    for k in range(RING5_VARIANTS):
        names = gen.agent_names(rng, 5)
        machine, init = load(gen.rename_ring(ring5, names, rng))

        def check_count(report, want=RING5_STATES[RING5_DEPTH]) -> int:
            _expect(report.states_visited == want,
                    f"ring5 depth {RING5_DEPTH}: {report.states_visited} states, want {want}")
            _expect(report.counterexample is None, "ring5: unexpected counterexample")
            return report.states_visited

        ops.append(Op(f"explore ring5 variant {k} depth {RING5_DEPTH}",
                      lambda m=machine, s=init: multiagent.explore(m, RING5_DEPTH, start=s),
                      check_count))

    cases = [("ring3.asm", False)] * RING3_VARIANTS + [("ring3_mutant.asm", True)]
    for k, (model, expect_violation) in enumerate(cases):
        names = gen.agent_names(rng, 3)
        text = gen.rename_ring((MODELS / model).read_text(encoding="utf-8"), names, rng)
        machine, init = load(text)
        assertion = load.term(gen.ring_safety(names), machine.sig)

        def check_safety(report, bad=expect_violation, model=model) -> int:
            if bad:
                _expect(report.counterexample is not None, f"{model}: no counterexample")
                steps = len(report.counterexample.steps)
                _expect(steps == MUTANT_STEPS,
                        f"{model}: counterexample of {steps} steps, want {MUTANT_STEPS}")
            else:
                _expect(report.counterexample is None, f"{model}: assertion violated")
                _expect(report.states_visited == RING3_STATES,
                        f"{model}: {report.states_visited} states, want {RING3_STATES}")
            return report.states_visited

        ops.append(Op(f"explore {model} variant {k} safety",
                      lambda m=machine, a=assertion, s=init:
                          multiagent.explore(m, RING3_DEPTH, 10_000, a, s),
                      check_safety))
    return ops


# ---------------------------------------------------------------------------
# refine-chain

STREAM_BOUND = 6  # abstract side enumerates 3^6 runs of a 4-state machine
SELF_BOUND = 5  # both sides enumerate 3^5 runs
SELF_VARIANTS = 3
CHAIN_VARIANTS = 12  # many short commands, so the latency tail has samples
REFINE_BUDGET = 10_000_000
_VERDICT = re.compile(
    r"^(PASS|FAIL|BUDGET)  (\S+)(?:  \(abstract runs: (\d+), refined runs: (\d+)\))?$")


def _verdicts(stdout: str):
    """[(verdict, step, abstract runs, refined runs)] from check-refine output."""
    found = []
    for line in stdout.splitlines():
        m = _VERDICT.match(line)
        if m:
            runs = (int(m.group(3)), int(m.group(4))) if m.group(3) else (0, 0)
            found.append((m.group(1), m.group(2)) + runs)
    return found


def _check_chain(want_status: int, want: list):
    def check(result) -> int:
        status, stdout = result
        got = _verdicts(stdout)
        _expect(status == want_status, f"check-refine exit {status}, want {want_status}")
        _expect(got == want, f"check-refine verdicts {got}, want {want}")
        return sum(a + r for _, _, a, r in got)
    return check


def setup_refine_chain(seed: int, workdir: Path, load: Loader) -> List[Op]:
    rng = random.Random(seed)
    models = os.path.relpath(MODELS, workdir)
    files: Dict[str, str] = {}
    for k in range(CHAIN_VARIANTS):
        values = gen.stream_values(rng)
        files[f"stream{k}.asm"] = gen.choice_stream(values)
        files[f"rr{k}.asm"] = gen.round_robin(values)
        files[f"chain_ok{k}.refine"] = gen.manifest([
            ("choice_to_round_robin", f"stream{k}.asm", f"rr{k}.asm",
             (STREAM_BOUND, STREAM_BOUND, REFINE_BUDGET)),
            ("counter_to_table", f"{models}/round_robin.asm", f"{models}/rr_table.asm",
             (3, 3, 10_000)),
            ("table_to_stutter", f"{models}/rr_table.asm", f"{models}/rr_stutter.asm",
             (3, 6, 10_000)),
        ])
    for k in range(SELF_VARIANTS):
        files[f"self{k}.refine"] = gen.manifest([
            ("stream_to_stream", f"stream{k}.asm", f"stream{k}.asm",
             (SELF_BOUND, SELF_BOUND, REFINE_BUDGET))])
    for name, text in files.items():
        if name.endswith(".asm"):
            load(text)
    gen.write_all(files, workdir)
    ops = [Op(f"check-refine chain_ok scaled {k}",
              lambda p=str(workdir / f"chain_ok{k}.refine"): _cli(["check-refine", p]),
              _check_chain(0, [("PASS", "choice_to_round_robin", 3 ** STREAM_BOUND, 1),
                               ("PASS", "counter_to_table", 1, 1),
                               ("PASS", "table_to_stutter", 1, 1)]))
           for k in range(CHAIN_VARIANTS)]
    ops += [Op(f"check-refine stream against itself {k}",
               lambda p=str(workdir / f"self{k}.refine"): _cli(["check-refine", p]),
               _check_chain(0, [("PASS", "stream_to_stream", 3 ** SELF_BOUND,
                                 3 ** SELF_BOUND)]))
            for k in range(SELF_VARIANTS)]
    broken = str(MODELS / "chains" / "chain_broken.refine")
    ops.append(Op("check-refine chain_broken", lambda: _cli(["check-refine", broken]),
                  _check_chain(1, [("PASS", "choice_to_round_robin", 27, 1),
                                   ("FAIL", "counter_to_broken", 0, 0),
                                   ("PASS", "table_to_stutter", 1, 1)])))
    return ops


# ---------------------------------------------------------------------------
# simulate

RR_STEPS = 2000
RANDOM_MACHINES = 8
RANDOM_STEPS = 100
REC_DEPTH = 60
REC_STEPS = 2
WORKERS = 4
WORKER_STEPS = 150


def _state_values(stdout: str) -> Dict[str, str]:
    return dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)


def _exported(trace, shared: dict):
    """Export a trace as JSON lines and keep both for the replay that follows."""
    shared["trace"] = trace
    shared["jsonl"] = interp.export_trace_jsonl(trace)
    return trace


def _check_run(steps: int):
    def check(trace) -> int:
        _expect(trace.outcome == "budget" and len(trace.steps) == steps,
                f"seeded run ended {trace.outcome} after {len(trace.steps)} steps")
        return len(trace.steps)
    return check


def _check_replay(shared: dict):
    def check(replay) -> int:
        exported = [json.loads(line)["digest"] for line in shared["jsonl"].splitlines()]
        _expect(replay.digests()[:-1] == exported, "replay digests differ from the export")
        _expect(replay.digests() == shared["trace"].digests(), "replay final state differs")
        return len(replay.steps)
    return check


def _check_workers(names: List[str]):
    def check(trace) -> int:
        _expect(len(trace.steps) == WORKER_STEPS, f"ma_run made {len(trace.steps)} steps")
        order = [st.schedule[0] for st in trace.steps]
        _expect(all(a != b for a, b in zip(order, order[1:])),
                "an agent was scheduled twice in a row")
        twos = sum(1 for st in trace.steps for e in st.resolutions
                   if e.kind == "choose" and e.value == IntV(2))
        final = trace.final_state
        _expect(final.content.get(Location("total")) == IntV(WORKER_STEPS + twos),
                "total differs from the picks")
        for a in names:
            count = final.content.get(Location("count", (SymV(a),)))
            _expect(count == IntV(order.count(a)), f"count of {a} differs")
        return len(trace.steps)
    return check


def setup_simulate(seed: int, workdir: Path, load: Loader) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []

    rr_steps = RR_STEPS + seed % 3  # every phase of the cycle appears across seeds
    rr_path = str(MODELS / "round_robin.asm")
    load((MODELS / "round_robin.asm").read_text(encoding="utf-8"))

    def check_rr(result) -> int:
        status, stdout = result
        values = _state_values(stdout)
        want = {"out": str((rr_steps - 1) % 3 + 1), "counter": str(rr_steps % 3)}
        _expect(status == 0 and values == want, f"round_robin state {values}, want {want}")
        return rr_steps

    ops.append(Op(f"run round_robin {rr_steps}",
                  lambda: _cli(["run", rr_path, "--steps", str(rr_steps),
                                "--seed", str(seed)]),
                  check_rr))

    for k in range(RANDOM_MACHINES):
        machine, init = load(gen.random_machine(rng, f"Random{k}"))
        run_seed = rng.randrange(1 << 30)
        shared: dict = {}
        ops.append(Op(f"run random machine {k}",
                      lambda m=machine, s=init, r=run_seed, sh=shared: _exported(
                          interp.run(m, RANDOM_STEPS, interp.Resolver.seeded(r), start=s),
                          sh),
                      _check_run(RANDOM_STEPS)))
        ops.append(Op(f"replay random machine {k}",
                      lambda m=machine, s=init, sh=shared:
                          interp.run(m, RANDOM_STEPS,
                                     interp.Resolver.scripted(sh["trace"].as_script()),
                                     start=s),
                      _check_replay(shared)))

    start = rng.randrange(100)
    rec, rec_init = load(gen.recursive_machine(REC_DEPTH, start))

    def check_rec(trace) -> int:
        want = start + REC_STEPS * REC_DEPTH * (REC_DEPTH + 1) // 2
        got = trace.final_state.content.get(Location("total"))
        _expect(got == IntV(want), f"recursion total {got}, want {want}")
        return len(trace.steps)

    ops.append(Op(f"run recursion depth {REC_DEPTH}",
                  lambda: interp.run(rec, REC_STEPS, interp.Resolver.seeded(seed),
                                     start=rec_init),
                  check_rec))

    names = gen.agent_names(rng, WORKERS)
    workers, workers_init = load(gen.worker_machine(names))
    ma_seed = rng.randrange(1 << 30)
    ma_shared: dict = {}

    ops.append(Op("ma_run interleaved workers",
                  lambda: _exported(multiagent.ma_run(
                      workers, multiagent.Interleaving(), WORKER_STEPS,
                      interp.Resolver.seeded(ma_seed), workers_init), ma_shared),
                  _check_workers(names)))
    ops.append(Op("replay interleaved workers",
                  lambda: multiagent.ma_run(
                      workers, multiagent.Interleaving(), WORKER_STEPS,
                      interp.Resolver.scripted(ma_shared["trace"].as_script()),
                      workers_init),
                  _check_replay(ma_shared)))
    return ops


# ---------------------------------------------------------------------------
# many-small

GENERATED_SOURCES = 12
PGA_RULES = 6
PGA_STATES = 6 ** len(gen.PGA_LOCS)  # six candidate values per 0-ary location
GREEN = ["accumulator_sum", "coin_abstract", "ring_quiesce", "ring_safety_probe",
         "swap_basic"]
MUTANT = ["ring_mutant_unsafe", "swap_wrong"]


def _check_fmt(result) -> int:
    status, text = result
    _expect(status == 0, f"fmt exit {status}")
    again = parser.pretty_print(parser.parse_machine(text))
    _expect(again == text, "pretty_print is not a fixed point of parse")
    return 1


def _check_normalize(result) -> int:
    status, stdout = result
    want = f"equivalence over {PGA_STATES} states: pass"
    _expect(status == 0 and stdout.splitlines()[-1] == want,
            f"normalize exit {status}: {stdout.splitlines()[-1:]}")
    return 1


def _check_suite(want_status: int, scenarios: List[str], failed: List[str]):
    def check(result) -> int:
        status, stdout = result
        summary = json.loads(stdout.splitlines()[-1])
        _expect(status == want_status, f"scenario exit {status}, want {want_status}")
        _expect(summary["scenarios"] == len(scenarios) and summary["failed"] == failed,
                f"scenario summary {summary}")
        return 1
    return check


def setup_many_small(seed: int, workdir: Path, load: Loader) -> List[Op]:
    rng = random.Random(seed)
    files: Dict[str, str] = {}
    for k in range(GENERATED_SOURCES):
        files[f"random{k}.asm"] = gen.random_machine(rng, f"Random{k}")
    for k in range(PGA_RULES):
        files[f"pga{k}.asm"] = gen.random_pga_machine(rng, f"Pga{k}")
    for text in files.values():
        load(text)
    gen.write_all(files, workdir)
    models = sorted(MODELS.glob("*.asm"))
    for path in models:
        load(path.read_text(encoding="utf-8"))

    ops: List[Op] = []
    sources = [str(p) for p in models]
    sources += [str(workdir / f"random{k}.asm") for k in range(GENERATED_SOURCES)]
    for path in sources:
        ops.append(Op(f"fmt {Path(path).name}",
                      lambda p=path: _cli(["fmt", p, "--stdout"]), _check_fmt))
    for k in range(PGA_RULES):
        path = str(workdir / f"pga{k}.asm")
        ops.append(Op(f"normalize pga{k}", lambda p=path: _cli(["normalize", p]),
                      _check_normalize))
    scenarios = MODELS / "scenarios"
    ops.append(Op("scenario green", lambda: _cli(["scenario", str(scenarios / "green"), "--json"]),
                  _check_suite(0, GREEN, [])))
    ops.append(Op("scenario mutant",
                  lambda: _cli(["scenario", str(scenarios / "mutant"), "--json"]),
                  _check_suite(1, MUTANT, MUTANT)))
    return ops


WORKLOADS = {
    "explore-ring": setup_explore_ring,
    "refine-chain": setup_refine_chain,
    "simulate": setup_simulate,
    "many-small": setup_many_small,
}
