"""Built-in static operations: arithmetic, comparison, connectives, set ops.

The registry is the customization point for domain-specific vocabularies:
`register(name, arity, fn)` adds an operation that terms may then apply.
Every operation is static: a function of its arguments only, with no
state and no effect. The interpreter relies on this to evaluate an
operation applied to constants once and keep its value (`interp._once`).

Strictness: every operation yields undef as soon as any argument is undef,
and likewise for ill-typed arguments or division by zero. The exceptions
are equality/inequality and the boolean connectives, which are total:
equality compares any two values (undef equals only itself), and the
connectives follow three-valued logic so that `false and x` is false and
`true or x` is true no matter what x is. Guards reject undef downstream,
which is where type confusion finally surfaces.
"""
from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from .errors import ArityMismatch, BackgroundError
from .values import FALSE, TRUE, UNDEF, IntV, SetV, Value, mkbool, mkset

# name -> (arity or None for variadic, implementation)
_REGISTRY: Dict[str, Tuple[Optional[int], Callable[..., Value]]] = {}


def register(name: str, arity: Optional[int], fn: Callable[..., Value]) -> None:
    """Add the operation `name`; `fn` must be static, a function of its
    arguments only, as the interpreter keeps its value on constants."""
    _REGISTRY[name] = (arity, fn)


def is_background(name: str) -> bool:
    return name in _REGISTRY


def background_op(name: str) -> Tuple[Optional[int], Callable[..., Value]]:
    """The (arity, implementation) registered under `name`."""
    return _REGISTRY[name]


def apply_background(name: str, args: Tuple[Value, ...]) -> Value:
    entry = _REGISTRY.get(name)
    if entry is None:
        raise BackgroundError(f"unknown background operation {name!r}")
    arity, fn = entry
    if arity is not None and len(args) != arity:
        raise ArityMismatch(f"{name!r} expects {arity} argument(s), got {len(args)}")
    return fn(*args)


def _ints(*vs: Value):
    out = []
    for v in vs:
        if not isinstance(v, IntV):
            return None
        out.append(v.n)
    return out


def _int2(fn):
    def op(a: Value, b: Value) -> Value:
        # exact class tests, no list: a `+` or `<` runs on every step
        if a.__class__ is IntV and b.__class__ is IntV:
            return fn(a.n, b.n)
        return UNDEF

    return op


def _div(a: int, b: int) -> Value:
    return UNDEF if b == 0 else IntV(a // b)


def _mod(a: int, b: int) -> Value:
    return UNDEF if b == 0 else IntV(a % b)


def _neg(a: Value) -> Value:
    return IntV(-a.n) if isinstance(a, IntV) else UNDEF


def _eq(a: Value, b: Value) -> Value:
    return mkbool(a == b)


def _neq(a: Value, b: Value) -> Value:
    return mkbool(a != b)


def _kleene_and(a: Value, b: Value) -> Value:
    if a == FALSE or b == FALSE:
        return FALSE
    if a == TRUE and b == TRUE:
        return TRUE
    return UNDEF


def _kleene_or(a: Value, b: Value) -> Value:
    if a == TRUE or b == TRUE:
        return TRUE
    if a == FALSE and b == FALSE:
        return FALSE
    return UNDEF


def _kleene_not(a: Value) -> Value:
    if a == TRUE:
        return FALSE
    if a == FALSE:
        return TRUE
    return UNDEF


def _kleene_implies(a: Value, b: Value) -> Value:
    return _kleene_or(_kleene_not(a), b)


def _sets(*vs: Value):
    out = []
    for v in vs:
        if not isinstance(v, SetV):
            return None
        out.append(v.elems)
    return out


def _union(a: Value, b: Value) -> Value:
    ss = _sets(a, b)
    return UNDEF if ss is None else SetV(ss[0] | ss[1])


def _inter(a: Value, b: Value) -> Value:
    ss = _sets(a, b)
    return UNDEF if ss is None else SetV(ss[0] & ss[1])


def _diff(a: Value, b: Value) -> Value:
    ss = _sets(a, b)
    return UNDEF if ss is None else SetV(ss[0] - ss[1])


def _mem(x: Value, s: Value) -> Value:
    if x is UNDEF or not isinstance(s, SetV):
        return UNDEF
    return mkbool(x in s.elems)


def _card(s: Value) -> Value:
    return IntV(len(s.elems)) if isinstance(s, SetV) else UNDEF


def _subset(a: Value, b: Value) -> Value:
    ss = _sets(a, b)
    return UNDEF if ss is None else mkbool(ss[0] <= ss[1])


def _mkset(*args: Value) -> Value:
    if any(a is UNDEF for a in args):
        return UNDEF
    return mkset(args)


def _mkrange(lo: Value, hi: Value) -> Value:
    ns = _ints(lo, hi)
    if ns is None:
        return UNDEF
    return mkset(IntV(n) for n in range(ns[0], ns[1] + 1))


register("+", 2, _int2(lambda a, b: IntV(a + b)))
register("-", 2, _int2(lambda a, b: IntV(a - b)))
register("*", 2, _int2(lambda a, b: IntV(a * b)))
register("div", 2, _int2(_div))
register("mod", 2, _int2(_mod))
register("neg", 1, _neg)
register("=", 2, _eq)
register("!=", 2, _neq)
register("<", 2, _int2(lambda a, b: mkbool(a < b)))
register("<=", 2, _int2(lambda a, b: mkbool(a <= b)))
register(">", 2, _int2(lambda a, b: mkbool(a > b)))
register(">=", 2, _int2(lambda a, b: mkbool(a >= b)))
register("and", 2, _kleene_and)
register("or", 2, _kleene_or)
register("not", 1, _kleene_not)
register("implies", 2, _kleene_implies)
register("union", 2, _union)
register("inter", 2, _inter)
register("diff", 2, _diff)
register("mem", 2, _mem)
register("card", 1, _card)
register("subset", 2, _subset)
register("mkset", None, _mkset)
register("mkrange", 2, _mkrange)
