"""The canonical sort keys that `Location` and `Update` keep once built
are the keys computed afresh, and every order read from them is the order
of sorting by fresh keys: `UpdateSet.key`, `UpdateSet.__iter__`,
`enumerate_update_sets` and `enumerate_moves`. Keeping a key changes
nothing else of an interned object: not its copy, its pickle or its repr.
`test_trace_oracle` checks that the random locations and values reach
tricky strings, nested sets and undef arguments."""
import copy
import itertools
import pickle
import random

import pytest

from conftest import load_model
from rulegen import random_agent_machine, random_location, random_machine, random_value
from test_interp_oracle import visit_reachable
from asmweave import interp
from asmweave.interp import (Inconsistent, Move, Stalled, enumerate_moves,
                             enumerate_update_sets, rule_body)
from asmweave.state import Location, Update, UpdateSet
from asmweave.values import SetV, StrV, UNDEF, value_key

_fresh_names = itertools.count()


def location_key(loc: Location) -> tuple:
    return (loc.fname, tuple(value_key(a) for a in loc.args))


def update_key(u: Update) -> tuple:
    return (location_key(u.loc), value_key(u.val))


def set_key(us: UpdateSet) -> tuple:
    return tuple(sorted(update_key(u) for u in us.updates))


def _update(rng: random.Random) -> Update:
    return Update(random_location(rng), random_value(rng))


@pytest.mark.parametrize("seed", range(30))
def test_kept_keys_are_the_fresh_keys(seed):
    rng = random.Random(seed)
    for _ in range(20):
        u = _update(rng)
        want_loc, want = location_key(u.loc), update_key(u)
        assert u.key() == want and u.loc.key() == want_loc
        assert u.key() is u.key() and u.loc.key() is u.loc.key()  # built once, kept
        assert Update(u.loc, u.val).key() is u.key()
    for size in (0, 1, 2, 3, 8):
        us = UpdateSet.of(_update(rng) for _ in range(size))
        assert us.key() == set_key(us)
        assert [update_key(u) for u in us] == sorted(update_key(u) for u in us.updates)


def test_a_kept_key_changes_no_copy_pickle_or_repr():
    n = next(_fresh_names)
    loc = Location(f"key_oracle_{n}", (StrV("a, b"), UNDEF))
    u = Update(loc, SetV(frozenset([StrV("x")])))
    before = [pickle.dumps(loc), pickle.dumps(u), repr(loc), repr(u)]
    u.key()
    assert [pickle.dumps(loc), pickle.dumps(u), repr(loc), repr(u)] == before
    assert repr(loc) == f"Location(fname='key_oracle_{n}', args=(StrV(s='a, b'), undef))"
    for obj in (loc, u):
        assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
        assert pickle.loads(pickle.dumps(obj)) is obj
    with pytest.raises(AttributeError):
        u._key = ()


def _moves_by_fresh_keys(state, machine, rule, agent):
    """`enumerate_moves` with every ordering key computed afresh."""
    results = {}
    for us, resolutions in interp._probe(rule_body(machine, rule), state, machine,
                                         10_000, agent):
        res = interp._outcome(state.sig, us, resolutions, (agent,))
        if isinstance(res, Inconsistent):
            key = (1, tuple((location_key(loc), tuple(sorted(map(value_key, vals))))
                            for loc, vals in res.clashes))
        else:
            key = (0, set_key(us))
        results.setdefault(key, res)
    return [results[k] for k in sorted(results)]


def _shown(res) -> tuple:
    if isinstance(res, Stalled):
        return ("stalled", res.resolutions)
    if isinstance(res, Inconsistent):
        return ("inconsistent", res.clashes, res.updates, res.resolutions, res.schedule)
    assert isinstance(res, Move)
    return ("move", res.updates, res.resolutions, res.schedule, res.writes, res.clears)


def test_enumerations_follow_the_fresh_keys():
    rng = random.Random(5)
    machines = [random_machine(rng, f"K{i}", depth=5) for i in range(30)]
    machines += [random_agent_machine(rng, f"KA{i}") for i in range(5)]
    machines += [load_model("choose_out.asm"), load_model("coin.asm")]
    counts = {"one": 0, "several": 0}

    for machine in machines:
        def results_of(state, aid, body, machine=machine):
            sets = {us for us, _ in interp._probe(body, state, machine, 10_000, aid)}
            counts["one" if len(sets) == 1 else "several"] += 1
            got = enumerate_update_sets(body, interp._agent_view(state, aid), machine)
            assert got == sorted(sets, key=set_key)
            rule = next(r for a, r in interp.agents_of(machine) if a == aid)
            assert ([_shown(r) for r in enumerate_moves(state, machine, rule, agent=aid)]
                    == [_shown(r) for r in _moves_by_fresh_keys(state, machine, rule, aid)])
            return [(us,) for us in got]
        visit_reachable(machine, 3, results_of)
    assert counts["one"] > 20 and counts["several"] > 20
