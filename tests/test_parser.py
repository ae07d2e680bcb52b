import hashlib
import random

import pytest

from conftest import MODELS
from asmweave.errors import AsmError, ParseError, ResolveError
from asmweave.interp import _rule, _term, run
from asmweave.parser import (
    App,
    Assign,
    Lit,
    Par,
    parse_machine,
    parse_term,
    pp_rule_expr,
    pp_term,
    pretty_print,
)
from asmweave.values import IntV

SWAP = """
machine Swap
  controlled a, b
  rule Main = par a := b  b := a endpar
  init { a := 1  b := 2 }
  main Main
"""


def test_swap_parses_to_expected_structure():
    m = parse_machine(SWAP)
    assert m.name == "Swap"
    body = m.declarations["Main"].body
    assert body == Par((
        Assign(App("a", ()), App("b", ())),
        Assign(App("b", ()), App("a", ())),
    ))
    assert m.init == ((App("a", ()), Lit(IntV(1))), (App("b", ()), Lit(IntV(2))))
    assert m.main == "Main"


def test_nodes_compare_and_hash_without_their_position():
    spaced = parse_term("f( x )  +  {1 .. 2}")
    tight = parse_term("f(x)+{1..2}")
    assert spaced == tight and hash(spaced) == hash(tight)
    assert spaced.pos == (1, 9) and tight.pos == (1, 5)
    assert len({spaced, tight, parse_term("f(x) + {1 .. 3}")}) == 2
    first, second = (parse_machine(SWAP.replace("= par", f"= {pad}par")).declarations["Main"]
                     for pad in ("", "   "))
    assert first.body == second.body and hash(first.body) == hash(second.body)
    assert first.body.pos != second.body.pos
    # a choose's label is not compared either
    chooses = [parse_machine(f"machine C controlled x rule {r} = choose v in {{1, 2}} do x := v"
                             f" main {r}").declarations[r].body for r in ("A", "B")]
    assert chooses[0] == chooses[1] and chooses[0].label != chooses[1].label


def test_node_repr_shows_every_field():
    t = parse_term("x + 1")
    assert repr(t) == ("App(fname='+', args=(Var(name='x', pos=(1, 1)), "
                       "Lit(value=IntV(n=1), pos=(1, 5))), pos=(1, 3))")
    body = parse_machine(SWAP).declarations["Main"].body
    assert repr(body.children[0]) == ("Assign(lhs=App(fname='a', args=(), pos=(4, 19)), "
                                      "rhs=App(fname='b', args=(), pos=(4, 24)), pos=(4, 19))")


def test_nodes_keep_their_compiled_closure():
    m = parse_machine(SWAP)
    before = repr(m.declarations["Main"].body)
    run(m, 1)
    body = m.declarations["Main"].body
    sig, fn = body._compiled
    assert sig is m.sig and _rule(body, m.sig) is fn
    rhs = body.children[0].rhs
    assert rhs._compiled[0] is m.sig and _term(rhs, m.sig) is rhs._compiled[1]
    # the closure is no field: repr, == and hash ignore it
    fresh = parse_machine(SWAP).declarations["Main"].body
    assert repr(body) == before and body == fresh and hash(body) == hash(fresh)


def test_unknown_name_is_resolve_error():
    with pytest.raises(ResolveError):
        parse_machine("machine M rule R = x := 1 main R")


def test_multiple_diagnostics_reported_together():
    src = "machine M rule R = if x then y := 1 main R"
    with pytest.raises(ResolveError) as e:
        parse_machine(src)
    messages = " ".join(m for _, _, m in e.value.diagnostics)
    assert "x" in messages and "y" in messages
    assert len(e.value.diagnostics) >= 2


def test_assignment_to_non_controlled_rejected():
    src = "machine M monitored m rule R = m := 1 main R"
    with pytest.raises(ResolveError) as e:
        parse_machine(src)
    assert "monitored" in str(e.value)


def test_call_arity_checked():
    src = """
machine M
  controlled x
  rule R(a) = x := a
  rule Main = R(1, 2)
  main Main
"""
    with pytest.raises(ResolveError):
        parse_machine(src)


def test_parse_term_precedence():
    m = parse_machine(SWAP)
    t = parse_term("a + 1", m.sig)
    assert t == App("+", (App("a", ()), Lit(IntV(1))))
    # arithmetic binds tighter than comparison, comparison tighter than bool
    t2 = parse_term("a + 1 = b and a = 2", m.sig)
    assert t2.fname == "and"
    assert t2.args[0].fname == "="
    assert t2.args[0].args[0].fname == "+"


def test_parse_term_equation():
    src = """
machine M
  controlled f/2, g/1, x
  rule R = x := 0
  main R
"""
    m = parse_machine(src)
    t = parse_term("f(1, 2) = g(3)", m.sig)
    assert t.fname == "=" and t.args[0].fname == "f" and t.args[1].fname == "g"


def test_parse_term_error_has_position():
    with pytest.raises(ParseError) as e:
        parse_term("(")
    assert e.value.line == 1 and e.value.col >= 1


def test_skip_is_empty_par_and_prints_back():
    m = parse_machine("machine M controlled x rule R = skip main R")
    assert m.declarations["R"].body == Par(())
    assert pp_rule_expr(Par(())) == "skip"


def test_else_is_kept_in_ast():
    m = parse_machine(
        "machine M controlled x, c rule R = if c then x := 1 else x := 2 main R")
    body = m.declarations["R"].body
    assert body.else_op is not None


def test_round_trip_all_bundled_machines():
    for path in sorted(MODELS.glob("*.asm")):
        text = path.read_text(encoding="utf-8")
        m = parse_machine(text)
        printed = pretty_print(m)
        assert parse_machine(printed) == m, path.name
        assert pretty_print(parse_machine(printed)) == printed, path.name


def test_round_trip_preserves_operator_structure():
    cases = [
        "a + 1",
        "(a + 1) * 2",
        "a - 1 - 2",
        "-a + 1",
        "not a = b",
        "not (a = 1 and b = 2)",
        "a = 1 or b = 2 and a = 0",
        "a = 1 implies b = 2 implies a = 0",
        "(a = 1 implies b = 2) implies a = 0",
        "{1, 2, 3}",
        "{1 .. 5}",
        "{}",
        "mem(a, {1, 2})",
        "card(union({1}, {2}))",
    ]
    m = parse_machine(SWAP)
    for text in cases:
        t = parse_term(text, m.sig)
        assert parse_term(pp_term(t), m.sig) == t, text


def test_printer_and_parser_share_the_operator_table():
    # random trees over every operator print and parse back to themselves
    from asmweave.parser import _LEVEL, _PREFIX, Var

    rng = random.Random(5)
    prefix = sorted(_PREFIX.values())
    binary = sorted(set(_LEVEL) - set(prefix))

    def tree(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.2:
            return Lit(IntV(rng.randrange(3))) if rng.random() < 0.5 else Var("v")
        if roll < 0.35:
            return App(rng.choice(prefix), (tree(depth - 1),))
        return App(rng.choice(binary), (tree(depth - 1), tree(depth - 1)))

    for _ in range(2000):
        t = tree(5)
        assert parse_term(pp_term(t)) == t, pp_term(t)


def test_operator_names_declared_as_functions_print_as_calls():
    src = ("machine M controlled x, neg/2, mkrange/1 "
           "rule R = par x := neg(1, 2) x := mkrange(1) endpar main R")
    m = parse_machine(src)
    printed = pretty_print(m)
    assert "neg(1, 2)" in printed and "mkrange(1)" in printed
    assert parse_machine(printed) == m


def test_sym_and_string_literals():
    m = parse_machine("machine M controlled x rule R = x := 'white main R")
    from asmweave.values import SymV, StrV
    assert m.declarations["R"].body.rhs == Lit(SymV("white"))
    m2 = parse_machine('machine M controlled x rule R = x := "a\\"b" main R')
    assert m2.declarations["R"].body.rhs == Lit(StrV('a"b'))


def test_comments_are_ignored():
    m = parse_machine("machine M // header\n controlled x // decl\n rule R = x := 1\n main R")
    assert "R" in m.declarations


def test_deep_nesting_is_a_parse_error_not_a_crash():
    for rhs in ["(" * 2000 + "1" + ")" * 2000,
                "1" + " + 1" * 19_999,  # operator applications count like brackets
                "not " * 20_000 + "true"]:
        src = "machine M controlled x rule R = x := " + rhs + " main R"
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_machine(src)


def test_grouped_sig_decl_with_arities():
    m = parse_machine("machine M controlled f/2, g, h/1 rule R = g := 1 main R")
    assert m.sig.get("f").arity == 2
    assert m.sig.get("g").arity == 0
    assert m.sig.get("h").arity == 1


def test_abstract_codomain_hint():
    m = parse_machine(
        "machine M abstract pick : {1, 2, 3} controlled x rule R = x := pick main R")
    hint = m.sig.get("pick").codomain
    assert hint is not None and len(hint) == 3


def test_self_is_reserved():
    with pytest.raises(ResolveError):
        parse_machine("machine M controlled self rule R = self := 1 main R")


def test_pretty_print_fixed_point_on_random_machines():
    from rulegen import random_machine

    rng = random.Random(12)
    for i in range(30):
        m = random_machine(rng, f"PP{i}")
        printed = pretty_print(m)
        assert parse_machine(printed) == m
        assert pretty_print(parse_machine(printed)) == printed


def test_fuzz_parser_never_crashes_small():
    rng = random.Random(99)
    alphabet = "machine rule init main par endpar if then else := = ( ) { } , 'x \" 0 1 x y \n\t"
    for _ in range(2000):
        n = rng.randrange(0, 60)
        if rng.random() < 0.5:
            text = "".join(chr(rng.randrange(0, 256)) for _ in range(n))
        else:
            text = "".join(rng.choice(alphabet) for _ in range(n))
        try:
            parse_machine(text)
        except AsmError:
            pass  # any toolkit error is fine; crashes are not


def test_parse_results_are_pinned():
    # the digest was recorded before the parser resolved names in one pass;
    # any change to a result, an error message or a position changes it
    from parse_corpus import results

    digest = hashlib.sha256("\n".join(results()).encode("utf-8")).hexdigest()
    assert digest == "77771ddc34febbeaf6b91f8520268eb36e13e43f2cb3cc20c0bc12e0d3c0b354"
