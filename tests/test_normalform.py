import collections
import random

import pytest

from conftest import load_model
from rulegen import pga_test_machine, pga_test_space, random_pga_rule, random_total_pga_source
from asmweave import cli, normalform
from asmweave.errors import NotPGA, RecursiveCall, SpaceTooLarge
from asmweave.normalform import classify_pga, equivalence_check, normalize
from asmweave.parser import App, Assign, If, Lit, Par, parse_machine, pp_term
from asmweave.state import Location, Update, UpdateSet
from asmweave.values import BoolV, IntV

MIXED = parse_machine("""
machine Mixed
  controlled x, y, c, d
  rule Guarded = if c then par x := 1 (if d then y := 2) endpar
  rule Bare = x := 1
  rule Twice = if c then (if c then x := 1)
  rule WithChoose = choose v in {1, 2} do x := v
  rule WithLet = let v = 1 in x := v
  rule WithForall = forall v in {1, 2} do x := v
  rule CallsLeaf = Leaf()
  rule Leaf = x := 1
  rule Loops = Loops()
  rule WithElse = if c then x := 1 else x := 2
  main Bare
""")

SPACE = [
    (Location("c"), [BoolV(True), BoolV(False)]),
    (Location("d"), [BoolV(True), BoolV(False)]),
    (Location("x"), [IntV(0), IntV(1)]),
    (Location("y"), [IntV(0), IntV(1)]),
]


def clause_texts(nf):
    from asmweave.parser import pp_rule_expr
    return [(pp_term(g), pp_rule_expr(a)) for g, a in nf.clauses]


def test_swap_is_pga():
    swap = load_model("swap.asm")
    assert classify_pga(swap, "Main").is_pga


def test_choose_let_forall_are_offending():
    for rule, name in [("WithChoose", "choose"), ("WithLet", "let"),
                       ("WithForall", "forall")]:
        verdict = classify_pga(MIXED, rule)
        assert not verdict.is_pga
        assert [n for _, n in verdict.offending] == [name]
        assert verdict.offending[0][0] is not None  # has a position


def test_inlined_call_is_pga():
    assert classify_pga(MIXED, "CallsLeaf").is_pga


def test_recursive_call_cannot_be_inlined():
    with pytest.raises(RecursiveCall):
        classify_pga(MIXED, "Loops")


def test_normalize_pushes_guards():
    assert clause_texts(normalize(MIXED, "Guarded")) == [
        ("c", "x := 1"), ("c and d", "y := 2")]


def test_normalize_bare_assignment_gets_true_guard():
    assert clause_texts(normalize(MIXED, "Bare")) == [("true", "x := 1")]


def test_normalize_performs_no_boolean_simplification():
    assert clause_texts(normalize(MIXED, "Twice")) == [("c and c", "x := 1")]


def test_normalize_rejects_non_pga():
    with pytest.raises(NotPGA):
        normalize(MIXED, "WithChoose")


def test_normal_form_shape():
    nf = normalize(MIXED, "Guarded").to_rule()
    assert isinstance(nf, Par)
    for child in nf.children:
        assert isinstance(child, If)
        assert isinstance(child.then_op, Assign)
        assert child.else_op is None


def test_normalize_is_idempotent_target():
    nf = normalize(MIXED, "Guarded")
    assert classify_pga(MIXED, nf.to_rule()).is_pga
    again = normalize(MIXED, nf.to_rule())
    assert equivalence_check(MIXED, nf, again, SPACE).passed


def test_equivalence_examples():
    assert equivalence_check(MIXED, "Guarded", normalize(MIXED, "Guarded"), SPACE).passed
    different = equivalence_check(
        MIXED, "Bare",
        Assign(App("x", ()), Lit(IntV(2))), SPACE)
    assert not different.passed
    assert different.witness is not None


def test_equivalence_validates_else_desugaring():
    desugared = parse_machine("""
machine E
  controlled x, y, c, d
  rule Sugar = if c then x := 1 else x := 2
  rule Plain = par (if c then x := 1) (if not c then x := 2) endpar
  main Sugar
""")
    assert equivalence_check(desugared, "Sugar", "Plain", SPACE).passed


def test_equivalence_handles_nondeterministic_rules_as_sets():
    m = parse_machine("""
machine N
  controlled x
  rule A = choose v in {1, 2} do x := v
  rule B = choose v in {2, 1} do x := v
  rule C = choose v in {1, 3} do x := v
  main A
""")
    space = [(Location("x"), [IntV(0)])]
    assert equivalence_check(m, "A", "B", space).passed
    assert not equivalence_check(m, "A", "C", space).passed


def test_space_budget():
    big = [(Location("x"), [IntV(i) for i in range(200)]),
           (Location("y"), [IntV(i) for i in range(200)]),
           (Location("c"), [IntV(i) for i in range(200)])]
    with pytest.raises(SpaceTooLarge):
        equivalence_check(MIXED, "Bare", "Bare", big)


def test_random_pga_soundness_sample():
    bench = pga_test_machine()
    space = pga_test_space()
    rng = random.Random(2)
    for _ in range(40):
        rule = random_pga_rule(rng)
        nf = normalize(bench, rule)
        result = equivalence_check(bench, rule, nf, space)
        assert result.passed, (pp_term(nf.clauses[0][0]), result.left, result.right)


def test_normalize_builds_no_update_set_key_for_lone_update_sets(tmp_path, monkeypatch,
                                                                 capsys):
    """Counts, not times: `normalize` over 6^5 states whose rules yield
    one update set each never orders update sets. The key of an update is
    built at most once, however often a traced `run` orders its sets."""
    enumerate_update_sets, key = normalform.enumerate_update_sets, Update.key
    built, lone, calls = collections.Counter(), [0], [0]

    def one_set(*args):
        sets = enumerate_update_sets(*args)
        assert len(sets) == 1
        lone[0] += 1
        return sets

    def never(us):
        raise AssertionError("UpdateSet.key called")

    def counting(u):
        calls[0] += 1
        try:
            u._key
        except AttributeError:
            built[u] += 1
        return key(u)

    monkeypatch.setattr(normalform, "enumerate_update_sets", one_set)
    monkeypatch.setattr(UpdateSet, "key", never)
    monkeypatch.setattr(Update, "key", counting)
    rng = random.Random(12)
    for k in range(2):
        path = tmp_path / f"total{k}.asm"
        path.write_text(random_total_pga_source(rng, f"Total{k}"), encoding="utf-8")
        assert cli.main(["normalize", str(path)]) == 0
        assert capsys.readouterr().out.endswith("equivalence over 7776 states: pass\n")
        for _ in range(2):
            assert cli.main(["run", str(path), "--steps", "20",
                             "--trace", str(tmp_path / "trace.jsonl")]) in (0, 1)
    assert lone[0] == 2 * 2 * 7776
    assert calls[0] > len(built) and max(built.values(), default=1) == 1
