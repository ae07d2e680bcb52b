"""Universe elements: integers, booleans, strings, symbols, finite sets, undef.

Values are hash-consed (Filliâtre & Conchon, "Type-Safe Modular
Hash-Consing", ML Workshop 2006): equal values are one immutable object, so
`==` and `hash` are `object`'s identity, run in C. Kinds stay apart
(`IntV(1) != BoolV(True)`), and `UNDEF` is a singleton. `value_key` is the
canonical total order for set enumeration, printing and digests.
"""
from __future__ import annotations

import json
from typing import Any, Iterable


class Interned:
    """An immutable object, the only one of its class with its `_fields`:
    the class's table, a plain dict kept for the life of the process, maps
    each tuple of fields made so far (for IntV, each int) to its object.
    That keying is a contract: hot paths read `_table` directly, as
    `Location._table.get((fname, args)) or Location(fname, args)`, so an
    object already made costs a dict lookup in C and no Python frame, and
    the constructor is the table's only writer. `_text`, set on first use,
    holds its canonical JSON text (see `value_text`, `Location.pair_head`,
    `Update.text`); a `Location` or `Update` keeps its canonical sort key
    (`key()`) in `_key` alike."""

    __slots__ = ("_text",)
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._table = {}

    def __new__(cls, *fields):
        try:
            return cls._table[fields]
        except KeyError:
            obj = object.__new__(cls)
            for name, field in zip(cls._fields, fields):
                object.__setattr__(obj, name, field)
            return cls._table.setdefault(fields, obj)  # one C call: one winner per key

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the table
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Value(Interned):
    """Base class for universe elements."""

    __slots__ = ()


class IntV(Value):
    __slots__ = _fields = ("n",)

    def __new__(cls, n: int) -> "IntV":
        if n.__class__ is bool:  # True == 1 would share 1's entry
            raise TypeError(f"IntV takes an int, not {n!r}")
        try:  # keyed by the int itself, no tuple per entry: a counter makes many
            return cls._table[n]
        except KeyError:
            obj = object.__new__(cls)
            object.__setattr__(obj, "n", n)
            return cls._table.setdefault(n, obj)


class BoolV(Value):
    __slots__ = _fields = ("b",)


class StrV(Value):
    __slots__ = _fields = ("s",)


class SymV(Value):
    """Identifier-like constant, written 'name in source."""

    __slots__ = _fields = ("name",)


class SetV(Value):
    __slots__ = ("elems", "_order")
    _fields = ("elems",)

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

    def __repr__(self) -> str:
        return "undef"


UNDEF = _Undef()

TRUE = BoolV(True)
FALSE = BoolV(False)


def mkbool(b: bool) -> BoolV:
    return TRUE if b else FALSE


def mkset(elems: Iterable[Value]) -> SetV:
    return SetV(frozenset(elems))


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


def value_text(v: Value) -> str:
    """`encode_value(v)` as compact JSON (ASCII only, no spaces), as digests
    and exported traces write it; computed on first use and kept on `v`."""
    try:
        return v._text
    except AttributeError:
        text = json.dumps(encode_value(v), separators=(",", ":"))
        object.__setattr__(v, "_text", text)
        return text


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
