"""A seeded corpus of `explore` and `check-refine` results, one line each.

The corpus holds every bundled model, machines from
`rulegen.random_machine`, machines with agents from
`rulegen.random_agent_machine`, both bundled refinement chains, and
random machines checked against each other. An explore line gives the
state count, `complete` and the inconsistent branch count at several
depths, and the sha256 of the exported counterexample under a random
assertion. A refinement line gives the verdict, its run counts and
truncation flags, and for a FAIL the observations and the sha256 of the
exported run. Hashing the lines pins both searches, so a rewrite of
either can be checked against the one it replaces.
"""
from __future__ import annotations

import hashlib
import random
from typing import Iterator, List

from conftest import MODELS
from rulegen import _bool_term, random_agent_machine, random_machine
from asmweave.interp import export_trace_jsonl, initial_state
from asmweave.multiagent import explore
from asmweave.parser import MachineDef, Term, parse_machine, parse_term, pp_term
from asmweave.refine import Fail, RefinementSpec, check_chain, check_refinement
from asmweave.state import FunctionKind
from asmweave.values import show_value

DEPTHS = (0, 1, 3, 6)
MODEL_DEPTHS = (0, 1, 3)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _model_assertion(rng: random.Random, machine: MachineDef) -> Term:
    """`loc = v` for a random controlled location and its initial value:
    violated once the location changes."""
    content = initial_state(machine).content
    locs = sorted((loc for loc in content
                   if machine.sig.get(loc.fname).kind == FunctionKind.CONTROLLED),
                  key=lambda loc: loc.key())
    if not locs:
        return parse_term("true", machine.sig)
    loc = rng.choice(locs)
    return parse_term(f"{loc.show()} = {show_value(content[loc])}", machine.sig)


def _explore_lines(name: str, machine: MachineDef, depths, assertion: Term) -> List[str]:
    lines = []
    for depth in depths:
        rep = explore(machine, depth)
        lines.append(f"{name} depth {depth}: {rep.states_visited} states, "
                     f"complete {rep.complete}, inconsistent {rep.inconsistent_branches}")
        rep = explore(machine, depth, assertion=assertion)
        if rep.counterexample is None:
            lines.append(f"{name} depth {depth} assert {pp_term(assertion)}: holds")
        else:
            lines.append(f"{name} depth {depth} assert {pp_term(assertion)}: "
                         f"{rep.states_visited} states, violated in "
                         f"{len(rep.counterexample.steps)} steps, trace "
                         f"{_sha(export_trace_jsonl(rep.counterexample))}")
    return lines


def _verdict_line(name: str, verdict) -> str:
    s = verdict.stats
    line = (f"{name}: {type(verdict).__name__} runs {s.abstract_runs}/{s.refined_runs} "
            f"truncated {s.abstract_truncated}/{s.refined_truncated}")
    if isinstance(verdict, Fail):
        line += (f" observed {verdict.observed.pretty()} nearest "
                 + "; ".join(a.pretty() for a in verdict.nearest_abstract)
                 + f" trace {_sha(export_trace_jsonl(verdict.counterexample))}")
    return line


def _random_spec(rng: random.Random, abstract: MachineDef,
                 refined: MachineDef) -> RefinementSpec:
    labels = rng.sample(["b1", "b2", "n1", "n2"], rng.randrange(1, 3))
    observations = tuple((label, parse_term(label, abstract.sig),
                          parse_term(label, refined.sig)) for label in labels)
    bounds = (rng.randrange(5), rng.randrange(5), rng.choice([50, 10_000]))
    return RefinementSpec(abstract, refined, observations, bounds)


def results(seed: int = 2024, plain: int = 100, agents: int = 50,
            pairs: int = 60) -> Iterator[str]:
    """Explore lines for the models, the plain and the agent machines, then
    the bundled chains, then random refinement checks."""
    rng = random.Random(seed)
    for path in sorted(MODELS.glob("*.asm")):
        machine = parse_machine(path.read_text(encoding="utf-8"))
        yield from _explore_lines(path.stem, machine, MODEL_DEPTHS,
                                  _model_assertion(rng, machine))
    machines = []
    for i in range(plain + agents):
        make = random_machine if i < plain else random_agent_machine
        machine = make(rng, f"G{i}")
        machines.append(machine)
        assertion = parse_term(pp_term(_bool_term(rng, ())), machine.sig)
        yield from _explore_lines(machine.name, machine, DEPTHS, assertion)
    for path in sorted((MODELS / "chains").glob("*.refine")):
        for name, verdict in check_chain(path):
            yield _verdict_line(f"{path.stem}/{name}", verdict)
    for _ in range(pairs):
        abstract, refined = rng.choice(machines), rng.choice(machines)
        if rng.random() < 0.3:
            refined = abstract
        verdict = check_refinement(_random_spec(rng, abstract, refined))
        yield _verdict_line(f"{abstract.name}~{refined.name}", verdict)
