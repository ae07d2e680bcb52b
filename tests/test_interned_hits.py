"""A value, location or update that is already interned is read from its
class's table without a Python-level constructor; a miss still interns
through the constructor, and every table is keyed as that fast path reads
it (see `values.Interned`)."""
import itertools
import random
import sys

import pytest

from conftest import MODELS, load_model
from rulegen import random_agent_machine, random_call_machine, random_machine
from test_fused import _calls
from asmweave.background import background_op
from asmweave.interp import (
    Interleaving,
    Resolver,
    Synchronous,
    eval_term,
    export_trace_jsonl,
    initial_state,
    ma_run,
    run,
)
from asmweave.multiagent import explore
from asmweave.parser import parse_machine, parse_term
from asmweave.state import Location, Update
from asmweave.values import UNDEF, Interned, IntV, SymV

CONSTRUCTORS = {IntV.__new__.__code__, Location.__new__.__code__, Interned.__new__.__code__}

HITS = parse_machine("""
machine Hits
  static s/1
  controlled n, h, f/1, g/2
  rule Main =
    par
      n := (n + 1) mod 5
      choose i in {0 .. 3} do
        par
          f(i) := (f(i) + s(i)) mod 5
          g(i, n) := (f(i) + 1) mod 5
          if g(i, n) = undef then skip else h := g(i, n) + n
        endpar
    endpar
  init {
    n := 0
    s(0) := 1
    s(1) := 2
    s(2) := 3
    s(3) := 4
    f(0) := 0
    f(1) := 0
    f(2) := 0
    f(3) := 0
  }
  main Main
""")


def test_a_second_identical_run_calls_no_constructor():
    start = initial_state(HITS)
    first = run(HITS, 40, Resolver.seeded(7), start=start)
    second, called = _calls(lambda: run(HITS, 40, Resolver.seeded(7), start=start))
    assert not CONSTRUCTORS & called
    # the run reached every site: one- and two-argument reads and writes,
    # static reads, `+` and `mod`, and no step clashed
    assert len(second.steps) == 40 and second.outcome == "budget"
    assert export_trace_jsonl(second) == export_trace_jsonl(first)
    assert all(u is v for a, b in zip(first.steps, second.steps)
               for u, v in zip(a.updates, b.updates))


def test_a_second_interleaved_run_builds_no_agent_symbol():
    # each agent step binds `self` to the agent's symbol, and each
    # interleaving draw offers the agents as symbols: both read the table
    machine = parse_machine("""
machine Workers
  controlled count/1
  rule Work = count(self) := (count(self) + 1) mod 3
  init { count('a) := 0  count('b) := 0  count('c) := 0 }
  main Work
  agent a runs Work
  agent b runs Work
  agent c runs Work
""")
    first = ma_run(machine, Interleaving(), 30, Resolver.seeded(5))
    built = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is Interned.__new__.__code__:
            built.append(frame.f_locals["cls"])

    sys.setprofile(hook)
    try:
        second = ma_run(machine, Interleaving(), 30, Resolver.seeded(5))
    finally:
        sys.setprofile(None)
    assert SymV not in built
    assert export_trace_jsonl(second) == export_trace_jsonl(first)
    # the run drew a schedule at every step and ran each agent's rule
    assert len(second.steps) == 30
    assert {s.schedule for s in second.steps} == {("a",), ("b",), ("c",)}


def test_a_miss_still_interns():
    # the first m from 2^70 on whose successor no earlier test has interned
    m = next(m for m in itertools.count(2 ** 70, 3) if not {m + 1, m + 2} & IntV._table.keys())
    machine = parse_machine(f"""
machine Miss
  controlled n, f/1
  rule Main = par n := n + 1  f(n + 1) := n + 1 endpar
  init {{ n := {m} }}
  main Main
""")
    (step,) = run(machine, 1, Resolver.seeded(0)).steps
    value = step.next_state.content[Location("n")]
    assert value is IntV(m + 1) and value.n == m + 1
    loc = Location("f", (value,))
    assert step.next_state.content[loc] is value
    assert set(step.updates) == {Update(Location("n"), value), Update(loc, value)}
    # a read of a location never made interns it, and reads it as undef
    read = parse_term("f(n + 1)", machine.sig)
    assert eval_term(read, step.next_state) is UNDEF
    further = Location._table["f", (IntV._table[m + 2],)]
    assert further is Location("f", (IntV(m + 2),)) and further.args[0].n == m + 2
    # the implementation the generic path calls interns its result too
    plus = background_op("+")[1]
    assert plus(IntV(m), IntV(3)) is IntV(m + 3) is IntV._table[m + 3]


def test_an_int_value_is_never_built_from_a_bool():
    # the table alone would answer True with 1's entry, as True == 1: the
    # fast paths read it only with ints, and the constructor refuses a bool
    assert IntV._table.get(True) is IntV(1)
    with pytest.raises(TypeError):
        IntV(True)
    assert not any(type(k) is bool for k in IntV._table)


def _interned_classes(cls=Interned):
    for sub in cls.__subclasses__():
        yield sub
        yield from _interned_classes(sub)


def test_every_table_is_keyed_as_the_fast_path_reads_it():
    for name in sorted(p.name for p in MODELS.glob("*.asm")):
        machine = load_model(name)
        scheduler = Interleaving() if machine.agents else Synchronous()
        for seed in range(3):
            ma_run(machine, scheduler, 12, Resolver.seeded(seed))
        explore(machine, 3)
    rng = random.Random(28)
    for k in range(12):
        machine = (random_machine, random_call_machine, random_agent_machine)[k % 3](rng)
        scheduler = Interleaving() if machine.agents else Synchronous()
        ma_run(machine, scheduler, 10, Resolver.seeded(k))
    for key, obj in IntV._table.items():
        assert type(key) is int and type(obj) is IntV and obj.n is key
    classes = [cls for cls in _interned_classes() if cls is not IntV]
    assert {Location, Update} <= set(classes)
    for cls in classes:
        for key, obj in cls._table.items():
            assert type(obj) is cls and type(key) is tuple
            assert len(key) == len(cls._fields)
            assert all(getattr(obj, field) is part for field, part in zip(cls._fields, key))
