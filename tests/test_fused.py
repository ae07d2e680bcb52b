"""Built-in operations fused into the closure of their application: each
computes what its registered implementation and the oracle's tree walk
compute, on every kind of value, without calling that implementation; a
name registered anew takes the generic path."""
import itertools
import sys

import pytest

import interp_oracle
from asmweave import background, interp
from asmweave.background import apply_background, background_op
from asmweave.errors import AsmError
from asmweave.parser import App, Lit, Var
from asmweave.state import Signature, State
from asmweave.values import FALSE, TRUE, UNDEF, IntV, StrV, SymV, mkset

FUSED = sorted(name for name, (_, fn) in background._REGISTRY.items() if fn in background.FUSE)

VALUES = [IntV(0), IntV(3), IntV(-7), IntV(2 ** 64 + 1), IntV(-(2 ** 70)), TRUE, FALSE,
          UNDEF, StrV("3"), SymV("a"), mkset([IntV(3)]), mkset([])]
STATE = State(Signature(()))


def test_the_fused_operations_are_the_connectives_comparisons_and_int_arithmetic():
    assert FUSED == sorted(["+", "-", "*", "div", "mod", "<", "<=", ">", ">=", "=", "!=",
                            "and", "or", "not", "implies"])


def _calls(fn):
    """fn() and the code objects of the Python functions it called."""
    called = set()
    sys.setprofile(lambda frame, event, arg: called.add(frame.f_code) if event == "call"
                   else None)
    try:
        return fn(), called
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize("name", FUSED)
def test_a_fused_operation_agrees_with_its_implementation_and_the_oracle(name):
    arity, implementation = background_op(name)
    applied = App(name, tuple(Var(v) for v in "ab"[:arity]))
    for values in itertools.product(VALUES, repeat=arity):
        env = dict(zip("ab", values))
        want = apply_background(name, values)
        got, called = _calls(lambda: interp.eval_term(applied, STATE, env))
        assert got is want is interp_oracle.eval_term(applied, STATE, env), values
        assert implementation.__code__ not in called
        # on literals the fused closure runs once and keeps its value
        constant = App(name, tuple(map(Lit, values)))
        assert interp.eval_term(constant, STATE) is want
        assert interp.eval_term(constant, STATE) is want


@pytest.mark.parametrize("name", [n for n in FUSED if background_op(n)[0] == 2])
def test_a_fused_operation_evaluates_both_operands_left_to_right(name):
    # a value that decides `and`, `or` or `implies` alone on the left, yet
    # the right operand is still evaluated
    first = Lit(FALSE if name in ("and", "implies") else TRUE)
    for args, loose in (((first, Var("q")), "q"), ((Var("p"), Var("q")), "p")):
        for evaluate in (interp.eval_term, interp_oracle.eval_term):
            with pytest.raises(AsmError, match=f"unbound variable '{loose}'"):
                evaluate(App(name, args), STATE)


@pytest.fixture
def registry(monkeypatch):
    """A copy of the registry kept for this test."""
    monkeypatch.setattr(background, "_REGISTRY", dict(background._REGISTRY))


@pytest.mark.parametrize("name", FUSED)
def test_a_name_registered_anew_is_applied_by_a_tree_compiled_after(name, registry):
    arity, _ = background_op(name)
    before = App(name, (Lit(IntV(6)), Var("b"))[2 - arity:])
    env = {"b": IntV(3)}
    kept = interp.eval_term(before, STATE, env)
    background.register(name, arity, lambda *args: StrV(f"new {name}"))
    after = App(name, (Lit(IntV(6)), Var("b"))[2 - arity:])
    assert interp.eval_term(after, STATE, env) is StrV(f"new {name}")
    assert interp_oracle.eval_term(after, STATE, env) is StrV(f"new {name}")
    # a tree compiled earlier keeps the operation it bound
    assert interp.eval_term(before, STATE, env) is kept


def test_a_builtin_implementation_under_another_name_is_fused_as_itself(registry):
    background.register("plus", 2, background_op("+")[1])
    applied = App("plus", (Var("a"), Var("b")))
    got, called = _calls(lambda: interp.eval_term(applied, STATE, {"a": IntV(2), "b": IntV(5)}))
    assert got is IntV(7) and background_op("+")[1].__code__ not in called
