"""State digests and exported traces are byte-identical to those of
`trace_oracle`, which encodes every pair and update afresh with
`json.dumps`: on random contents whose strings hold JSON's separators,
quotes, escapes and non-ASCII text, and on the traces of every bundled
model."""
import random

import pytest

import trace_oracle
from conftest import MODELS, load_model
from rulegen import TRICKY_TEXTS, random_content, random_location, random_value
from asmweave.interp import (Inconsistent, Interleaving, Progressed, ResEntry, Resolver,
                             Trace, export_trace_jsonl, ma_run, run)
from asmweave.state import (FuncDecl, FunctionKind, Signature, State, Update, UpdateSet,
                            controlled_digest, conflicts, state_digest)
from asmweave.values import UNDEF, SetV


def _state(rng: random.Random, size: int) -> State:
    """A random content under a signature that makes some of its function
    names controlled and the rest monitored."""
    content = random_content(rng, size)
    kinds = (FunctionKind.CONTROLLED, FunctionKind.MONITORED)
    sig = Signature(tuple(FuncDecl(f, 0, rng.choice(kinds))
                          for f in sorted({loc.fname for loc in content})))
    return State(sig, content)


def _controlled(state: State) -> dict:
    return {loc: v for loc, v in state.content.items()
            if state.sig.get(loc.fname).kind == FunctionKind.CONTROLLED}


@pytest.mark.parametrize("seed", range(40))
def test_digests_of_random_contents_match_the_oracle(seed):
    rng = random.Random(seed)
    for size in (0, 1, 2, 5, 12):
        state = _state(rng, size)
        assert state_digest(state) == trace_oracle.digest(state.content)
        assert controlled_digest(state) == trace_oracle.digest(_controlled(state))


def _random_trace(rng: random.Random) -> Trace:
    """A trace of random update sets, draws and schedules, its last step
    inconsistent about half the time."""
    start = _state(rng, 6)
    steps, state = [], start
    for _ in range(rng.randrange(1, 6)):
        updates = UpdateSet.of(Update(random_location(rng), random_value(rng))
                               for _ in range(rng.randrange(5)))
        draws = tuple(ResEntry(rng.choice(("choose", "abstract", "monitored", "schedule")),
                               rng.choice(TRICKY_TEXTS), rng.choice(TRICKY_TEXTS),
                               random_value(rng))
                      for _ in range(rng.randrange(3)))
        schedule = tuple(rng.sample(TRICKY_TEXTS, rng.randrange(3)))
        state = state.derive(random_content(rng, 4))
        steps.append(Progressed(state, updates, draws, schedule))
    outcome = "budget"
    if rng.random() < 0.5:
        clash = UpdateSet.of(Update(loc, v) for loc in [random_location(rng)]
                             for v in (random_value(rng), random_value(rng)))
        steps.append(Inconsistent(tuple(conflicts(clash)), clash, (), ()))
        outcome = "inconsistent"
    return Trace(start, steps, outcome)


@pytest.mark.parametrize("seed", range(40))
def test_exports_of_random_traces_match_the_oracle(seed):
    rng = random.Random(seed)
    for _ in range(3):
        trace = _random_trace(rng)
        assert trace.digests() == trace_oracle.trace_digests(trace)
        assert export_trace_jsonl(trace) == trace_oracle.export_trace_jsonl(trace)


def test_random_contents_reach_the_cases_that_need_escaping():
    # the generators must produce what the two tests above are for
    rng = random.Random(0)
    blob = "".join(export_trace_jsonl(_random_trace(rng)) for _ in range(40))
    for needle in ('\\", \\"', '\\": \\"', "\\\\", "\\u00e9", "\\ud83d\\ude00", "null",
                   '"sym":', '"set":[{"str":'):
        assert needle in blob, needle
    values = [random_value(rng) for _ in range(200)]
    assert any(isinstance(e, SetV) for v in values if isinstance(v, SetV) for e in v)
    assert any(UNDEF in loc.args and len(loc.args) > 1
               for loc in (random_location(rng) for _ in range(200)))


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("model", sorted(p.name for p in MODELS.glob("*.asm")))
def test_model_traces_match_the_oracle(model, seed):
    machine = load_model(model)
    if machine.agents:
        trace = ma_run(machine, Interleaving(), 30, Resolver.seeded(seed))
    else:
        trace = run(machine, 30, Resolver.seeded(seed))
    assert trace.digests() == trace_oracle.trace_digests(trace)
    assert export_trace_jsonl(trace) == trace_oracle.export_trace_jsonl(trace)
    for state in trace.states:
        assert controlled_digest(state) == trace_oracle.digest(_controlled(state))
