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

The connectives, equality, the comparisons and the int arithmetic are
made from one table, `BUILTIN`, twice: as the implementation registered
here and as the closure `interp` fuses into an application, so that a
`+` runs inside its application's closure. An application is fused only
while its name keeps the built-in implementation; a name registered anew
takes the generic path, which calls what was registered.
"""
from __future__ import annotations

import functools
import operator
from typing import Callable, Dict, Optional, Tuple

from .errors import ArityMismatch, BackgroundError
from .values import FALSE, TRUE, UNDEF, IntV, SetV, Value, mkbool, mkset

# name -> (arity or None for variadic, implementation)
_REGISTRY: Dict[str, Tuple[Optional[int], Callable[..., Value]]] = {}


def register(name: str, arity: Optional[int], fn: Callable[..., Value]) -> None:
    """Add the operation `name`; `fn` must be static, a function of its
    arguments only, as the interpreter keeps its value on constants. A
    tree compiled after this applies `fn`, never a fused built-in, even
    under a built-in name; a tree compiled earlier keeps what it bound."""
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


# Each form of built-in operation twice: its implementation, a function
# of values, and its application fused into one closure of the argument
# closures (Proebsting, "Optimizing an ANSI C interpreter with
# superoperators", POPL 1995), which `interp` builds so that applying it
# takes one Python frame where calling the implementation takes two or
# three. Both are made from the operand that `BUILTIN` gives the
# operation, so each operation is defined once.

# Kleene's `not`; any other value, undef or ill-typed, gives undef
_NOT = {TRUE: FALSE, FALSE: TRUE}


def _arith(op):
    """`op`, an `operator` function, on the ints of two IntVs; a zero
    divisor gives undef."""
    ints = IntV._table.get  # a result already interned is read in C

    def arith(a: Value, b: Value) -> Value:
        # exact class tests, no list: a `+` runs on every step
        if a.__class__ is IntV and b.__class__ is IntV:
            try:
                return ints(n := op(a.n, b.n)) or IntV(n)
            except ZeroDivisionError:
                return UNDEF
        return UNDEF
    return arith


def _fuse_arith(op, a0, a1):
    ints = IntV._table.get

    def arith(s, e, r):
        a, b = a0(s, e, r), a1(s, e, r)
        if a.__class__ is IntV and b.__class__ is IntV:
            try:
                return ints(n := op(a.n, b.n)) or IntV(n)
            except ZeroDivisionError:
                return UNDEF
        return UNDEF
    return arith


def _compare(op):
    """`op`, an `operator` comparison, on the ints of two IntVs."""
    def compare(a: Value, b: Value) -> Value:
        if a.__class__ is IntV and b.__class__ is IntV:
            return TRUE if op(a.n, b.n) else FALSE
        return UNDEF
    return compare


def _fuse_compare(op, a0, a1):
    def compare(s, e, r):
        a, b = a0(s, e, r), a1(s, e, r)
        if a.__class__ is IntV and b.__class__ is IntV:
            return TRUE if op(a.n, b.n) else FALSE
        return UNDEF
    return compare


def _same(when):
    """Total equality: values are hash-consed, so equal values are one
    object; `when` is the result for one object and for two."""
    one, two = when
    return lambda a, b: one if a is b else two


def _fuse_same(when, a0, a1):
    one, two = when
    return lambda s, e, r: one if a0(s, e, r) is a1(s, e, r) else two


def _kleene(when):
    """`and` or `or` in three-valued logic, `when` being (absorbing, unit):
    the absorbing value on either side wins whatever the other is, the
    unit on both sides gives the unit, and anything else undef."""
    absorbing, unit = when

    def kleene(a: Value, b: Value) -> Value:
        if a is absorbing or b is absorbing:
            return absorbing
        return unit if a is unit and b is unit else UNDEF
    return kleene


def _fuse_kleene(when, a0, a1):
    absorbing, unit = when

    def kleene(s, e, r):  # both operands are evaluated, left to right
        a, b = a0(s, e, r), a1(s, e, r)
        if a is absorbing or b is absorbing:
            return absorbing
        return unit if a is unit and b is unit else UNDEF
    return kleene


def _implies(when):
    """`a implies b`, which is `not a or b`; `when` is `or`'s."""
    or_ = _kleene(when)
    return lambda a, b: or_(_NOT.get(a, UNDEF), b)


def _fuse_implies(when, a0, a1):
    return _fuse_kleene(when, _fuse_not(None, a0), a1)


def _not(_):
    return lambda a: _NOT.get(a, UNDEF)


def _fuse_not(_, a0):
    return lambda s, e, r: _NOT.get(a0(s, e, r), UNDEF)


# name -> (form, operand): the form picks the two makers, and the operand
# tells the operations of one form apart
BUILTIN = {"+": ("arith", operator.add), "-": ("arith", operator.sub),
           "*": ("arith", operator.mul), "div": ("arith", operator.floordiv),
           "mod": ("arith", operator.mod),
           "<": ("compare", operator.lt), "<=": ("compare", operator.le),
           ">": ("compare", operator.gt), ">=": ("compare", operator.ge),
           "=": ("same", (TRUE, FALSE)), "!=": ("same", (FALSE, TRUE)),
           "and": ("kleene", (FALSE, TRUE)), "or": ("kleene", (TRUE, FALSE)),
           "implies": ("implies", (TRUE, FALSE)), "not": ("not", None)}
_FORMS = {  # form -> (implementation maker, fused closure maker)
    "arith": (_arith, _fuse_arith), "compare": (_compare, _fuse_compare),
    "same": (_same, _fuse_same), "kleene": (_kleene, _fuse_kleene),
    "implies": (_implies, _fuse_implies), "not": (_not, _fuse_not)}

# each implementation registered here for a BUILTIN operation -> the maker
# of its application's fused closure from the argument closures; an
# application of a name registered anew finds no entry for what it calls
FUSE: Dict[Callable[..., Value], Callable[..., Callable]] = {}
for _name, (_form, _operand) in BUILTIN.items():
    _implementation, _fuse = _FORMS[_form]
    _fn = _implementation(_operand)
    register(_name, 1 if _form == "not" else 2, _fn)
    FUSE[_fn] = functools.partial(_fuse, _operand)


def _neg(a: Value) -> Value:
    return IntV(-a.n) if isinstance(a, IntV) else UNDEF


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


register("neg", 1, _neg)
register("union", 2, _union)
register("inter", 2, _inter)
register("diff", 2, _diff)
register("mem", 2, _mem)
register("card", 1, _card)
register("subset", 2, _subset)
register("mkset", None, _mkset)
register("mkrange", 2, _mkrange)
