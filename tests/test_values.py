from hypothesis import given, settings, strategies as st

from asmweave.interp import eval_term
from asmweave.parser import parse_term
from asmweave.state import Signature, State
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
