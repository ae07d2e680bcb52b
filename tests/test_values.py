import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from conftest import model_path
from asmweave.interp import eval_term, initial_state, read_location, read_override
from asmweave.parser import parse_machine, parse_term
from asmweave.scenario import run_scenario
from asmweave.state import FuncDecl, FunctionKind, Location, Signature, State, Update
from asmweave.values import (
    FALSE,
    TRUE,
    UNDEF,
    BoolV,
    IntV,
    SetV,
    StrV,
    SymV,
    decode_value,
    encode_value,
    mkset,
    show_value,
    value_key,
)


def test_undef_equal_only_to_itself():
    assert UNDEF == UNDEF
    for v in [IntV(0), FALSE, StrV(""), SymV("undef"), mkset([])]:
        assert UNDEF != v
        assert v != UNDEF


def test_kinds_do_not_collide():
    # Python's bool subclasses int; the wrappers must keep the sorts apart
    assert IntV(1) != BoolV(True)
    assert IntV(0) != BoolV(False)
    assert StrV("a") != SymV("a")


HASH_CONSED = (IntV, BoolV, StrV, SymV, SetV, Location, Update)


def test_hash_consed_classes_compare_and_hash_by_identity():
    # equal means identical only while no class compares or hashes contents
    for cls in HASH_CONSED:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls


def test_the_int_table_never_holds_a_bool():
    # True == 1, so an IntV(True) would be found under, or stored as, 1
    for b in (True, False):
        with pytest.raises(TypeError):
            IntV(b)
    assert IntV(1) is not TRUE and type(IntV(1).n) is int
    assert IntV(1) != BoolV(True) and IntV(0) != BoolV(False)


def test_threads_building_equal_values_get_one_object():
    # a value is built, then published once: a thread that loses the race
    # for a new key gets the winner's object, never a second equal one
    base, rounds, workers = 10**12, 2000, 4
    got = [[] for _ in range(workers)]
    start = threading.Barrier(workers)

    def build(out):
        start.wait()
        out.extend((IntV(base + k), Location("f", (IntV(base + k),)), StrV(str(base + k)))
                   for k in range(rounds))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in got[1:]:
        assert len(out) == rounds
        assert all(x is y for a, b in zip(out, got[0]) for x, y in zip(a, b))


def test_hash_consed_objects_are_immutable():
    for obj, field in ((IntV(1), "n"), (mkset([]), "elems"), (Location("a"), "args")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


def test_equal_values_are_identical_whichever_path_built_them(tmp_path):
    empty = State(Signature((FuncDecl("f", 2, FunctionKind.CONTROLLED),)))

    def ev(text):
        return eval_term(parse_term(text), empty)

    three = mkset([IntV(3), IntV(1), IntV(2)])
    assert parse_term("7").value is ev("3 + 4") is decode_value(7) is IntV(7)
    assert ev("{1 .. 3}") is ev("union({1, 2}, {3})") is ev("diff({1, 2, 3, 4}, {4})") is three
    assert decode_value({"set": [3, 2, 1]}) is three is SetV(frozenset(three.elems))
    assert ev("'a") is decode_value({"sym": "a"}) is SymV("a")
    assert ev('"s"') is decode_value({"str": "s"}) is StrV("s")
    assert ev("1 < 2") is decode_value(True) is BoolV(True) is TRUE
    assert read_location("f(-1, {1 .. 3})", empty.sig) is Location("f", (IntV(-1), three))

    machine = parse_machine(model_path("accumulator.asm").read_text(encoding="utf-8"))
    start = initial_state(machine, [read_override("total := 2 * 3", machine, "init")])
    ((loc, total),) = start.content.items()
    assert loc is Location("total") and total is IntV(6)

    scn = tmp_path / "acc.scn"
    scn.write_text(f"scenario acc\nmachine {model_path('accumulator.asm')}\n"
                   "init total := 2\nstep 1: inc := 5\nassert 1: total = 7\n",
                   encoding="utf-8")
    report = run_scenario(scn)
    assert report.passed
    (step,) = report.trace.steps
    assert step.resolutions[0].value is IntV(5)
    assert step.updates.updates == {Update(Location("total"), IntV(7))}
    (update,) = step.updates
    assert update is Update(loc, IntV(7)) and update.val is IntV(7)

    for v in (IntV(7), three, SymV("a"), StrV("s"), TRUE, UNDEF, loc, update,
              mkset([three, mkset([])])):
        assert copy.copy(v) is v and copy.deepcopy(v) is v
        assert pickle.loads(pickle.dumps(v)) is v


def test_reprs_name_the_fields():
    assert repr(IntV(1)) == "IntV(n=1)" and repr(UNDEF) == "undef"
    assert repr(Update(Location("f", (SymV("a"),)), StrV("s"))) == (
        "Update(loc=Location(fname='f', args=(SymV(name='a'),)), val=StrV(s='s'))")


def test_equality_is_equivalence_on_samples():
    samples = [UNDEF, TRUE, FALSE, IntV(0), IntV(1), StrV("x"), SymV("x"),
               mkset([IntV(1), IntV(2)]), mkset([IntV(2), IntV(1)])]
    for a in samples:
        assert a == a
        for b in samples:
            assert (a == b) == (b == a)
            for c in samples:
                if a == b and b == c:
                    assert a == c


def test_sets_are_unordered_and_deduplicated():
    assert mkset([IntV(1), IntV(2), IntV(1)]) == mkset([IntV(2), IntV(1)])
    assert len(SetV(frozenset({IntV(1), IntV(1)}))) == 1


def test_value_key_total_order():
    samples = [UNDEF, FALSE, TRUE, IntV(-3), IntV(7), StrV("a"), SymV("a"),
               mkset([]), mkset([IntV(1)])]
    keys = [value_key(v) for v in samples]
    assert sorted(keys) == keys  # rank order: undef < bool < int < str < sym < set


def test_encode_decode_round_trip():
    samples = [UNDEF, TRUE, FALSE, IntV(10**30), IntV(-4), StrV('say "hi"'),
               SymV("white"), mkset([IntV(1), SymV("a"), mkset([TRUE])])]
    for v in samples:
        assert decode_value(encode_value(v)) == v


def test_show_value_source_forms():
    assert show_value(UNDEF) == "undef"
    assert show_value(TRUE) == "true"
    assert show_value(IntV(-5)) == "-5"
    assert show_value(SymV("idle")) == "'idle"
    assert show_value(mkset([IntV(2), IntV(1)])) == "{1, 2}"
    assert show_value(StrV('a"b')) == '"a\\"b"'


_SCALARS = st.one_of(
    st.integers().map(IntV),
    st.booleans().map(BoolV),
    (st.text(st.sampled_from('a "\\\n\t')) | st.text()).map(StrV),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True).map(SymV),
)

# a set term with an undef element evaluates to undef, so no set holds one
VALUES = st.just(UNDEF) | st.recursive(
    _SCALARS, lambda inner: st.frozensets(inner, max_size=4).map(SetV), max_leaves=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(VALUES)
def test_show_value_reads_back(v):
    assert eval_term(parse_term(show_value(v)), State(Signature(()))) == v
