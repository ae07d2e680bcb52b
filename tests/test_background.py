"""Hand-written oracle table for the built-in operations.

Every expected value below was worked out by hand from the intended
semantics: strict operations yield undef as soon as any argument is undef
or ill-typed; equality and the connectives are total, with the connectives
following three-valued logic (false absorbs `and`, true absorbs `or`).
"""
import pytest

from asmweave.background import apply_background, is_background, register
from asmweave.values import FALSE, TRUE, UNDEF, IntV, StrV, SymV, mkset

U = UNDEF
T, F = TRUE, FALSE


def I(n):  # noqa: E743 - local shorthand keeps the table readable
    return IntV(n)


S12 = mkset([I(1), I(2)])
S23 = mkset([I(2), I(3)])

TABLE = [
    # strict arithmetic
    ("+", (I(2), I(3)), I(5)),
    ("+", (I(1), U), U),
    ("+", (U, I(1)), U),
    ("+", (T, I(1)), U),          # ill-typed
    ("-", (I(2), I(3)), I(-1)),
    ("*", (I(4), I(5)), I(20)),
    ("neg", (I(7),), I(-7)),
    ("neg", (U,), U),
    ("div", (I(7), I(2)), I(3)),
    ("div", (I(7), I(0)), U),     # division by zero
    ("mod", (I(7), I(2)), I(1)),
    ("mod", (I(7), I(0)), U),
    # strict comparisons
    ("<", (I(1), I(2)), T),
    ("<", (I(2), I(1)), F),
    ("<", (I(1), U), U),
    ("<", (SymV("a"), SymV("b")), U),  # only integers are ordered
    ("<=", (I(2), I(2)), T),
    (">", (I(3), I(2)), T),
    (">=", (U, I(0)), U),
    # total equality
    ("=", (U, U), T),
    ("=", (U, I(1)), F),
    ("=", (I(1), I(1)), T),
    ("=", (I(1), T), F),          # distinct kinds never equal
    ("!=", (U, U), F),
    ("!=", (I(1), I(2)), T),
    # total connectives, three-valued
    ("and", (T, T), T),
    ("and", (T, F), F),
    ("and", (F, U), F),
    ("and", (U, F), F),
    ("and", (T, U), U),
    ("and", (U, U), U),
    ("and", (I(1), F), F),        # false absorbs even ill-typed partners
    ("or", (F, F), F),
    ("or", (T, U), T),
    ("or", (U, T), T),
    ("or", (F, U), U),
    ("or", (I(1), T), T),
    ("not", (T,), F),
    ("not", (F,), T),
    ("not", (U,), U),
    ("not", (I(1),), U),
    ("implies", (F, U), T),
    ("implies", (U, T), T),
    ("implies", (T, U), U),
    ("implies", (T, F), F),
    # strict set operations
    ("union", (S12, S23), mkset([I(1), I(2), I(3)])),
    ("union", (S12, U), U),
    ("inter", (S12, S23), mkset([I(2)])),
    ("diff", (S12, S23), mkset([I(1)])),
    ("mem", (I(1), S12), T),
    ("mem", (I(3), S12), F),
    ("mem", (U, S12), U),
    ("mem", (I(1), U), U),
    ("card", (S12,), I(2)),
    ("card", (I(1),), U),
    ("subset", (S12, S12), T),
    ("subset", (S23, S12), F),
    ("mkrange", (I(1), I(3)), mkset([I(1), I(2), I(3)])),
    ("mkrange", (I(3), I(1)), mkset([])),
    ("mkrange", (U, I(1)), U),
    ("mkset", (I(1), I(1), I(2)), S12),
    ("mkset", (I(1), U), U),
    ("mkset", (), mkset([])),
]


@pytest.mark.parametrize("name,args,expected", TABLE,
                         ids=[f"{n}-{i}" for i, (n, _, _) in enumerate(TABLE)])
def test_background_oracle_table(name, args, expected):
    assert apply_background(name, args) == expected


# the integer operations on int/int and on every mixed pair: only two
# IntVs give a result (division floors), a boolean is no integer
INT_OPS = {"+": I(5), "-": I(9), "*": I(-14), "div": I(-4), "mod": I(-1), "<": F}
MIXED = [(I(7), T), (T, I(7)), (I(7), F), (I(7), U), (U, I(7)), (I(7), StrV("7")),
         (StrV("7"), I(7))]


@pytest.mark.parametrize("name", sorted(INT_OPS))
def test_integer_ops_on_int_bool_undef_and_str_pairs(name):
    assert apply_background(name, (I(7), I(-2))) is INT_OPS[name]
    for args in MIXED:
        assert apply_background(name, args) is U, args


def test_registry_is_extensible():
    register("double", 1, lambda v: IntV(v.n * 2) if isinstance(v, IntV) else UNDEF)
    assert is_background("double")
    assert apply_background("double", (I(4),)) == I(8)


def test_strings_compare_by_equality_only():
    assert apply_background("=", (StrV("a"), StrV("a"))) == T
    assert apply_background("=", (StrV("a"), StrV("b"))) == F
