import random

import pytest

from asmweave.errors import InconsistentUpdateSet, KindViolation, UnknownFunction, ArityMismatch
from asmweave.state import (
    FuncDecl,
    FunctionKind,
    Location,
    Signature,
    State,
    Update,
    UpdateSet,
    conflicts,
    controlled_digest,
    fire,
    lookup,
    state_digest,
)
from asmweave.values import UNDEF, IntV, SymV

SIG = Signature((
    FuncDecl("a", 0, FunctionKind.CONTROLLED),
    FuncDecl("b", 0, FunctionKind.CONTROLLED),
    FuncDecl("f", 1, FunctionKind.CONTROLLED),
    FuncDecl("m", 0, FunctionKind.MONITORED),
))

A = Location("a")
B = Location("b")


def us(*pairs):
    return UpdateSet.of([Update(loc, val) for loc, val in pairs])


def test_lookup_hit_default_and_errors():
    s = State(SIG, {A: IntV(1)})
    assert lookup(s, A) == IntV(1)
    assert lookup(s, B) is UNDEF
    with pytest.raises(UnknownFunction):
        lookup(s, Location("zz"))
    with pytest.raises(ArityMismatch):
        lookup(s, Location("f"))


def test_conflicts_examples():
    x = Location("a")
    y = Location("b")
    assert conflicts(us((x, IntV(1)), (x, IntV(2)))) == [(x, {IntV(1), IntV(2)})]
    assert conflicts(us((x, IntV(1)), (y, IntV(1)))) == []
    # duplicates collapse under set semantics
    assert conflicts(us((x, IntV(1)), (x, IntV(1)))) == []


def test_fire_swaps_values():
    s = State(SIG, {A: IntV(1), B: IntV(2)})
    s2 = fire(s, us((A, IntV(2)), (B, IntV(1))))
    assert lookup(s2, A) == IntV(2) and lookup(s2, B) == IntV(1)
    # original untouched (value semantics)
    assert lookup(s, A) == IntV(1) and lookup(s, B) == IntV(2)


def test_fire_empty_is_identity():
    s = State(SIG, {A: IntV(1)})
    assert fire(s, UpdateSet.empty()) == s


def test_fire_detects_clash():
    s = State(SIG)
    with pytest.raises(InconsistentUpdateSet) as e:
        fire(s, us((A, IntV(1)), (A, IntV(2))))
    assert e.value.clashes == [(A, {IntV(1), IntV(2)})]


def test_equal_locations_and_updates_are_identical():
    f1 = Location("f", (IntV(1),))
    assert Location("a") is Location("a", ()) is A
    assert Location("f", (IntV(1),)) is f1 is not Location("f", (IntV(2),))
    assert Update(Location("a"), IntV(1)) is Update(A, IntV(1))
    # so an update set holds each equal update once, and fire finds a clash
    # by counting locations
    assert len(us((A, IntV(1)), (Location("a", ()), IntV(1)))) == 1
    s = fire(State(SIG), us((A, IntV(1)), (Location("a", ()), IntV(1)), (f1, SymV("x"))))
    assert s.content == {A: IntV(1), f1: SymV("x")}
    with pytest.raises(InconsistentUpdateSet) as e:
        fire(State(SIG), us((f1, IntV(1)), (A, IntV(1)), (Location("f", (IntV(1),)), UNDEF)))
    assert e.value.clashes == [(f1, {IntV(1), UNDEF})]
    # the message is canonical, whatever order the values sit in their set
    assert str(e.value) == "inconsistent update set: f(1) <- {undef, 1}"


def test_fire_rejects_non_controlled_target():
    s = State(SIG)
    with pytest.raises(KindViolation):
        fire(s, us((Location("m"), IntV(1))))


def test_fire_is_deterministic():
    s = State(SIG, {A: IntV(3)})
    u = us((B, IntV(9)), (Location("f", (IntV(0),)), SymV("x")))
    assert fire(s, u) == fire(s, u)


def test_frame_property_exhaustive_small():
    locs = [A, B] + [Location("f", (IntV(k),)) for k in range(3)]
    rng = random.Random(0)
    for _ in range(200):
        content = {loc: IntV(rng.randrange(4)) for loc in locs if rng.random() < 0.7}
        s = State(SIG, content)
        touched = [loc for loc in locs if rng.random() < 0.5]
        u = us(*[(loc, IntV(rng.randrange(4))) for loc in touched])
        s2 = fire(s, u)
        for loc in locs:
            if loc in touched:
                continue
            assert lookup(s2, loc) == lookup(s, loc)


def test_undef_write_indistinguishable_from_absence():
    s = State(SIG, {A: IntV(1)})
    s2 = fire(s, us((A, UNDEF)))
    assert lookup(s2, A) is UNDEF
    assert s2 == State(SIG)
    assert state_digest(s2) == state_digest(State(SIG))


def test_digest_stable_and_monitored_excluded_from_controlled_digest():
    s1 = State(SIG, {A: IntV(1), Location("m"): IntV(5)})
    s2 = State(SIG, {A: IntV(1), Location("m"): IntV(9)})
    assert state_digest(s1) != state_digest(s2)
    assert controlled_digest(s1) == controlled_digest(s2)
