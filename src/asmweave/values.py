"""Universe elements: integers, booleans, strings, symbols, finite sets, undef.

All value classes are frozen and hashable. Equality is strict across kinds
(`IntV(1) != BoolV(True)`), and `UNDEF` is a singleton equal only to itself.
`value_key` defines one canonical total order used everywhere an iteration
order must be reproducible (set enumeration, printing, digests).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable


class Value:
    """Marker base class for universe elements."""

    __slots__ = ()


@dataclass(frozen=True)
class IntV(Value):
    n: int


@dataclass(frozen=True)
class BoolV(Value):
    b: bool


@dataclass(frozen=True)
class StrV(Value):
    s: str


@dataclass(frozen=True)
class SymV(Value):
    """Interned identifier-like constant, written 'name in source."""

    name: str


@dataclass(frozen=True)
class SetV(Value):
    elems: frozenset

    def __iter__(self):
        """The elements in canonical order, sorted on the first iteration."""
        try:
            return iter(self._order)
        except AttributeError:
            object.__setattr__(self, "_order", tuple(sorted(self.elems, key=value_key)))
            return iter(self._order)

    def __len__(self) -> int:
        return len(self.elems)


class _Undef(Value):
    """The distinguished default value; equal only to itself."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undef"


UNDEF = _Undef()

TRUE = BoolV(True)
FALSE = BoolV(False)


def mkbool(b: bool) -> BoolV:
    return TRUE if b else FALSE


def mkset(elems: Iterable[Value]) -> SetV:
    return SetV(frozenset(elems))


_RANK = {_Undef: 0, BoolV: 1, IntV: 2, StrV: 3, SymV: 4, SetV: 5}


def value_key(v: Value) -> tuple:
    """Canonical sort key; total across all value kinds."""
    if v is UNDEF:
        return (0,)
    if isinstance(v, BoolV):
        return (1, v.b)
    if isinstance(v, IntV):
        return (2, v.n)
    if isinstance(v, StrV):
        return (3, v.s)
    if isinstance(v, SymV):
        return (4, v.name)
    if isinstance(v, SetV):
        return (5, len(v.elems), tuple(value_key(e) for e in v))
    raise TypeError(f"not a Value: {v!r}")


def encode_value(v: Value) -> Any:
    """JSON-ready encoding. Ints and bools map to native JSON; undef to null."""
    if v is UNDEF:
        return None
    if isinstance(v, BoolV):
        return v.b
    if isinstance(v, IntV):
        return v.n
    if isinstance(v, StrV):
        return {"str": v.s}
    if isinstance(v, SymV):
        return {"sym": v.name}
    if isinstance(v, SetV):
        return {"set": [encode_value(e) for e in v]}
    raise TypeError(f"not a Value: {v!r}")


def decode_value(obj: Any) -> Value:
    """Inverse of encode_value."""
    if obj is None:
        return UNDEF
    if isinstance(obj, bool):  # must precede int: bool subclasses int
        return mkbool(obj)
    if isinstance(obj, int):
        return IntV(obj)
    if isinstance(obj, dict):
        if "str" in obj:
            return StrV(obj["str"])
        if "sym" in obj:
            return SymV(obj["sym"])
        if "set" in obj:
            return mkset(decode_value(e) for e in obj["set"])
    raise ValueError(f"cannot decode value from {obj!r}")


def show_value(v: Value) -> str:
    """Render a value in concrete source syntax."""
    if v is UNDEF:
        return "undef"
    if isinstance(v, BoolV):
        return "true" if v.b else "false"
    if isinstance(v, IntV):
        return str(v.n)
    if isinstance(v, StrV):
        return '"' + v.s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'
    if isinstance(v, SymV):
        return "'" + v.name
    if isinstance(v, SetV):
        return "{" + ", ".join(show_value(e) for e in v) + "}"
    raise TypeError(f"not a Value: {v!r}")
