"""The one-walk normalizer agrees with the three-pass one in
`normalform_oracle` on every rule: the same `PgaVerdict`, the same printed
clauses and the same NotPGA and RecursiveCall errors."""
import random
import re

import pytest

import normalform_oracle
from conftest import MODELS, load_model
from rulegen import random_call_machine, random_machine
from test_interp_oracle import CALLS
from test_normalform import MIXED
from asmweave import normalform
from asmweave.errors import NotPGA, RecursiveCall
from asmweave.parser import parse_machine, pp_rule_expr, pp_term


def outcome(impl, machine, rule):
    try:
        verdict = impl.classify_pga(machine, rule)
    except RecursiveCall as e:
        return "classify", type(e).__name__, str(e)
    try:
        nf = impl.normalize(machine, rule)
    except (NotPGA, RecursiveCall) as e:
        return verdict, type(e).__name__, str(e), getattr(e, "offending", None)
    return verdict, [(pp_term(g), pp_rule_expr(a)) for g, a in nf.clauses]


def assert_agree(machine):
    for rule in machine.declarations:
        expected = outcome(normalform_oracle, machine, rule)
        assert outcome(normalform, machine, rule) == expected, (machine.name, rule)


def test_agrees_on_machines_whose_rules_call_each_other():
    rng = random.Random(10)
    renamed = recursive = pga_with_calls = 0
    for i in range(200):
        machine = random_call_machine(rng, f"GenCall{i}")
        assert_agree(machine)
        for name, decl in machine.declarations.items():
            try:
                inlined = pp_rule_expr(normalform_oracle.inline_calls(machine, decl.body))
            except RecursiveCall:
                recursive += 1
                continue
            renamed += bool(re.search(r"\bv\d+_\d+\b", inlined))
            pga_with_calls += bool(re.search(r"\b(R\d+|Main)\(", pp_rule_expr(decl.body))
                                   and normalform.classify_pga(machine, name).is_pga)
    # the generator makes every case the walk distinguishes
    assert renamed and recursive and pga_with_calls, (renamed, recursive, pga_with_calls)


def test_agrees_on_plain_random_machines():
    rng = random.Random(11)
    for i in range(100):
        assert_agree(random_machine(rng, f"Gen{i}"))


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.asm")), ids=lambda p: p.name)
def test_agrees_on_bundled_models(path):
    assert_agree(load_model(path.name))


@pytest.mark.parametrize("source", [MIXED, CALLS], ids=["MIXED", "CALLS"])
def test_agrees_on_hand_written_machines(source):
    assert_agree(parse_machine(source) if isinstance(source, str) else source)
