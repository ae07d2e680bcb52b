"""The compiled evaluator gives exactly the results of the tree walk in
`interp_oracle`: the same values, update sets, draws and exported traces,
and, where evaluation fails, the same error class, message and position."""
import contextlib
import gc
import random
import weakref

import pytest

import interp_oracle
from conftest import MODELS, content_key, load_model
from parse_corpus import _TERM_SOURCE, term_texts
from rulegen import random_machine, random_par_machine
from asmweave import background, interp
from asmweave.errors import AsmError
from asmweave.interp import Resolver, agents_of, export_trace_jsonl, initial_state, rule_body
from asmweave.parser import (
    App,
    Assign,
    Choose,
    Forall,
    If,
    Let,
    Lit,
    Var,
    _subterms,
    parse_machine,
    parse_term,
)
from asmweave.state import Location, State, conflicts, fire
from asmweave.values import TRUE, IntV, SymV, mkset

CALLS = """
machine Calls
  controlled a, b, f/1
  rule Set(x, y) = f(x) := y
  rule Pick(s) = choose v in s with v != a do Set(v, v + a)
  rule Spread(x) = forall v in {0 .. 2} do Set(v, x)
  rule Count(k) = if k > 0 then par f(k + 3) := k Count(k - 1) endpar
  rule Main =
    par
      Pick({1, 2, a})
      let v = a in Spread(v + 1)
      Count(a)
      if b then b := false else Pick({a, 3})
    endpar
  init { a := 1  b := true }
  main Main
"""

RUNAWAY = """
machine Runaway
  controlled a
  rule R(k) = if k < 0 then a := k else R(k + 1)
  rule Main = R(0)
  main Main
"""


@contextlib.contextmanager
def _walking():
    """Evaluate through the oracle's tree walk instead of compiled closures."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp, "eval_term", interp_oracle.eval_term)
        mp.setattr(interp, "update_set", interp_oracle.update_set)
        yield


def _error(e: Exception) -> tuple:
    return ("error", type(e).__name__, str(e), getattr(e, "pos", None))


def _outcome(fn) -> tuple:
    """("value", fn()), or fn's error as ("error", class, message, position)."""
    try:
        return ("value", fn())
    except (AsmError, TypeError) as e:
        return _error(e)


def _agree(fn) -> tuple:
    """`_outcome(fn)`, asserted equal under both evaluators."""
    got = _outcome(fn)
    with _walking():
        want = _outcome(fn)
    assert got == want
    return got


def _drawn(state, fn) -> tuple:
    """The outcome of `fn(resolver)` and the draws made up to its end or error."""
    resolver = Resolver.seeded(9)
    resolver.begin_step(state)
    return _outcome(lambda: fn(resolver)), tuple(resolver._record)


def probe_results(body, state, machine, agent="", bound=10_000,
                  enumerate_=interp._probe) -> list:
    """Every (update set, resolutions) `enumerate_` yields, then its error
    if it raises one."""
    out = []
    try:
        for item in enumerate_(body, state, machine, bound, agent):
            out.append(item)
    except AsmError as e:
        out.append(_error(e))
    return out


def visit_reachable(machine, depth, results_of) -> int:
    """Call `results_of(state, agent, body)` for every agent in every state
    reachable in `depth` steps; its `probe_results` list gives the
    successors. Return the number of states visited."""
    agents = agents_of(machine)
    frontier = [initial_state(machine)]
    seen = {content_key(frontier[0])}
    for _ in range(depth):
        nxt = []
        for state in frontier:
            for aid, rule in agents:
                for item in results_of(state, aid, rule_body(machine, rule)):
                    if item[0] == "error":
                        continue  # the error that ended the probe
                    us = item[0]
                    if len(us) and not conflicts(us):
                        succ = fire(state, us)
                        if content_key(succ) not in seen:
                            seen.add(content_key(succ))
                            nxt.append(succ)
        frontier = nxt
    return len(seen)


def _reachable_probes(machine, depth) -> int:
    """Compare every agent's probe results in every state reachable in
    `depth` steps; return the number of states visited."""
    return visit_reachable(machine, depth, lambda state, aid, body: _agree(
        lambda: probe_results(body, state, machine, aid))[1])


def test_rulegen_probes_and_runs_agree_with_the_oracle():
    rng = random.Random(808)
    states = 0
    for i in range(200):
        make = random_machine if i % 2 else random_par_machine
        machine = make(rng, f"D{i}")
        states += _reachable_probes(machine, 4)
        seed = rng.randrange(1 << 30)
        _agree(lambda: export_trace_jsonl(interp.run(machine, 12, Resolver.seeded(seed))))
    assert states > 300


def test_bundled_and_calling_machines_agree_with_the_oracle(call_depth):
    machines = [load_model(p.name) for p in sorted(MODELS.glob("*.asm"))]
    machines += [parse_machine(CALLS), parse_machine(RUNAWAY)]
    call_depth(40)
    for machine in machines:
        _reachable_probes(machine, 3)
        for rule in machine.declarations:
            if machine.declarations[rule].formals:
                continue
            body = rule_body(machine, rule)
            state = initial_state(machine)
            # no resolver, no machine, a shallow call bound
            _agree(lambda: interp.update_set(body, state))
            call_depth(1)
            _agree(lambda: interp.update_set(body, state, None, Resolver.seeded(1), machine))
            call_depth(40)
        _agree(lambda: export_trace_jsonl(interp.run(machine, 8, Resolver.seeded(5))))
    _, runaway = _agree(lambda: probe_results(rule_body(machines[-1], "Main"),
                                              initial_state(machines[-1]), machines[-1]))
    assert runaway == [("error", "CallDepthExceeded", "4:41: call depth 40 exceeded at 'R'",
                        (4, 41))]


def _term_state(sig) -> State:
    content = {Location("a"): IntV(2), Location("b"): mkset([IntV(1), IntV(2)]),
               Location("h", (IntV(1),)): SymV("x"), Location("m"): TRUE}
    statics = {Location("k"): IntV(3), Location("f", (IntV(1),)): IntV(2),
               Location("g", (IntV(1), IntV(2))): mkset([IntV(0), IntV(1)])}
    return State(sig, content, statics)


def _uses(t):
    """Rules that read `t` as a value, a guard, a range and a binding."""
    h_x = Assign(App("h", (Var("x"),)), Var("x"))
    small = Lit(mkset([IntV(1), IntV(2)]))
    return [If(t, Assign(App("a"), t), Assign(App("a"), Lit(IntV(0)))),
            Let("x", t, h_x),
            Forall("x", t, None, h_x),
            Choose("x", t, None, h_x),
            Forall("x", small, t, h_x),
            Choose("x", small, t, h_x)]


# trees the parser refuses: wrong arities, an unknown name, a loose variable
MALFORMED = [App("f", ()), App("g", (Lit(IntV(1)),), (1, 1)), App("+", (Lit(IntV(1)),)),
             App("mkrange", ()), App("zz", (App("p"),), (2, 3)), Var("loose", (1, 2)),
             App("mem", (Var("loose"), Lit(IntV(1))))]


def _terms(sig):
    """The parse corpus's random terms that parse against `sig`, then MALFORMED."""
    for text in term_texts(2024, 50_000):
        try:
            yield parse_term(text, sig)
        except AsmError:
            continue
    yield from MALFORMED


def test_random_terms_agree_with_the_oracle():
    sig = parse_machine(_TERM_SOURCE).sig
    state = _term_state(sig)
    errors, evaluated, applied = set(), 0, set()
    for t in _terms(sig):
        evaluated += 1
        applied.update(u.fname for u in _subterms(t) if isinstance(u, App))
        outcomes = [_agree(lambda: interp.eval_term(t, state))]
        outcomes.append(_agree(lambda: _drawn(
            state, lambda r: interp.eval_term(t, state, None, r)))[1][0])
        for rule in _uses(t):
            outcomes.append(_agree(lambda: _drawn(
                state, lambda r: interp.update_set(rule, state, None, r)))[1][0])
        errors.update(o[1] for o in outcomes if o[0] == "error")
    assert evaluated > 10_000
    assert {"EvalError", "ArityMismatch", "GuardNotBoolean", "RangeNotSet",
            "UnboundVariable"} <= errors
    # every operation fused into its application's closure is reached
    assert set(background.BUILTIN) <= applied


def test_compiled_closures_die_with_their_tree():
    machine = parse_machine(CALLS)
    interp.run(machine, 5, Resolver.seeded(3))
    body = weakref.ref(machine.declarations[machine.main].body)
    del machine
    gc.collect()
    assert body() is None
