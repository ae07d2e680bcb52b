"""Signatures, states, locations, update sets, and the firing of updates.

A state maps locations (function name plus argument tuple) to values;
anything never written reads as `undef`. Firing a consistent update set
produces a fresh state in which exactly the updated locations changed —
every other location keeps its previous value.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import ArityMismatch, InconsistentUpdateSet, KindViolation, UnknownFunction
from .values import UNDEF, Interned, SetV, Value, show_value, value_key, value_text


class FunctionKind(Enum):
    STATIC = "static"
    CONTROLLED = "controlled"
    MONITORED = "monitored"
    ABSTRACT = "abstract"


@dataclass(frozen=True)
class FuncDecl:
    name: str
    arity: int
    kind: FunctionKind
    codomain: Optional[SetV] = None  # hint for abstract functions
    auto: bool = field(default=False, compare=False)  # implicitly declared (e.g. self)


@dataclass(frozen=True)
class Signature:
    """The declared functions. `_updatable` holds the locations `checked`
    has found declared controlled, so each is checked once."""

    entries: Tuple[FuncDecl, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_name", {d.name: d for d in self.entries})
        object.__setattr__(self, "_updatable", set())

    def get(self, name: str) -> Optional[FuncDecl]:
        return self._by_name.get(name)

    def of_kind(self, kind: FunctionKind) -> List[FuncDecl]:
        return [d for d in self.entries if d.kind == kind]


class Location(Interned):
    """A function name and argument tuple, hash-consed: equal means identical.
    `_key`, set on first use like `_text`, holds its canonical sort key."""

    __slots__ = ("fname", "args", "_key")
    _fields = ("fname", "args")

    def __new__(cls, fname: str, args: Tuple[Value, ...] = ()) -> "Location":
        try:
            return cls._table[fname, args]
        except KeyError:
            return Interned.__new__(cls, fname, args)

    def key(self) -> tuple:
        try:
            return self._key
        except AttributeError:
            object.__setattr__(self, "_key", (self.fname, tuple(map(value_key, self.args))))
            return self._key

    def show(self) -> str:
        if not self.args:
            return self.fname
        return f"{self.fname}({', '.join(show_value(a) for a in self.args)})"

    def pair_head(self) -> str:
        """`["fname",[args],`: the compact JSON that opens this location's
        pair in a state digest; computed on first use and kept on it."""
        try:
            return self._text
        except AttributeError:
            text = f'[{json.dumps(self.fname)},[{",".join(map(value_text, self.args))}],'
            object.__setattr__(self, "_text", text)
            return text


class Update(Interned):
    """A location and the value written to it, hash-consed. `_key`, set on
    first use like `_text`, holds its sort key: the location's and value's."""

    __slots__ = ("loc", "val", "_key")
    _fields = ("loc", "val")

    def key(self) -> tuple:
        try:
            return self._key
        except AttributeError:
            object.__setattr__(self, "_key", (self.loc.key(), value_key(self.val)))
            return self._key

    def text(self) -> str:
        """`{"f":"fname","args":[args],"val":val}`: this update in an
        exported trace, as compact JSON; computed on first use and kept."""
        try:
            return self._text
        except AttributeError:
            loc, args = self.loc, ",".join(map(value_text, self.loc.args))
            text = f'{{"f":{json.dumps(loc.fname)},"args":[{args}],"val":{value_text(self.val)}}}'
            object.__setattr__(self, "_text", text)
            return text


@dataclass(frozen=True, slots=True)
class UpdateSet:
    updates: frozenset

    @staticmethod
    def of(items: Iterable[Update]) -> "UpdateSet":
        return UpdateSet(frozenset(items))

    @staticmethod
    def empty() -> "UpdateSet":
        return _EMPTY

    def union(self, other: "UpdateSet") -> "UpdateSet":
        return UpdateSet(self.updates | other.updates)

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self):
        """The updates in `Update.key` order, read from each update's kept key."""
        return iter(sorted(self.updates, key=Update.key))

    def key(self) -> tuple:
        """Canonical, under every hash seed: the sorted update keys."""
        return tuple(sorted(map(Update.key, self.updates)))


_EMPTY = UpdateSet(frozenset())


class State:
    """A signature plus finite content; unwritten dynamic locations read undef.

    Instances are treated as immutable: `fire`, `with_content`, and the
    monitored-injection helpers all return fresh states. A state carries no
    search key. A search's `multiagent.SearchTable` keeps one beside each
    state: the sum of its content items' hashes, derived for a successor
    from its parent's by the locations a move changes. The key only picks
    candidates, equal content decides, and only a successor not seen
    before is built into a state.
    """

    __slots__ = ("sig", "content", "statics")

    def __init__(self, sig: Signature, content: Optional[Dict[Location, Value]] = None,
                 statics: Optional[Dict[Location, Value]] = None) -> None:
        self.sig = sig
        # A location holding undef is indistinguishable from an absent one,
        # so normalize away explicit undef entries.
        self.content = {k: v for k, v in (content or {}).items() if v is not UNDEF}
        self.statics = {k: v for k, v in (statics or {}).items() if v is not UNDEF}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return (
            self.sig == other.sig
            and self.content == other.content
            and self.statics == other.statics
        )

    def __repr__(self) -> str:
        pairs = sorted(self.content.items(), key=lambda kv: kv[0].key())
        return "State(" + ", ".join(f"{loc.show()}={show_value(v)}" for loc, v in pairs) + ")"

    def with_content(self, extra: Dict[Location, Value]) -> "State":
        merged = dict(self.content)
        merged.update(extra)
        return State(self.sig, merged, self.statics)

    def derive(self, content: Dict[Location, Value]) -> "State":
        """A state with this one's signature and statics dict and `content`,
        taken as it is: the caller guarantees it holds no undef."""
        out = State.__new__(State)
        out.sig, out.content, out.statics = self.sig, content, self.statics
        return out


def _check_loc(sig: Signature, loc: Location) -> FuncDecl:
    decl = sig.get(loc.fname)
    if decl is None:
        raise UnknownFunction(f"unknown function {loc.fname!r}")
    if decl.arity != len(loc.args):
        raise ArityMismatch(
            f"{loc.fname!r} has arity {decl.arity}, got {len(loc.args)} argument(s)"
        )
    return decl


def lookup(state: State, loc: Location) -> Value:
    """Read a controlled or monitored location; absent locations read undef."""
    decl = _check_loc(state.sig, loc)
    if decl.kind not in (FunctionKind.CONTROLLED, FunctionKind.MONITORED):
        raise KindViolation(f"{loc.fname!r} is {decl.kind.value}, not a dynamic location")
    return state.content.get(loc, UNDEF)


def conflicts(us: UpdateSet) -> List[Tuple[Location, set]]:
    """Locations assigned two or more distinct values, with those values."""
    seen: Dict[Location, set] = {}
    for u in us.updates:
        seen.setdefault(u.loc, set()).add(u.val)
    return sorted(((loc, vals) for loc, vals in seen.items() if len(vals) > 1),
                  key=lambda kv: kv[0].key())


def checked(sig: Signature, us: UpdateSet) -> Tuple[Dict[Location, Value],
                                                   Tuple[Location, ...]]:
    """What a consistent update set does: the values it writes, by location,
    and the locations it empties (sets to undef). Consistent means its
    updates (equal ones being identical) have distinct locations, all
    declared controlled; a clash raises InconsistentUpdateSet, a location
    of another kind KindViolation, as `_check_loc` raises for the rest."""
    updates = us.updates
    if len({u.loc for u in updates}) != len(updates):
        raise InconsistentUpdateSet(conflicts(us))
    writes: Dict[Location, Value] = {}
    clears: List[Location] = []
    updatable = sig._updatable
    for u in updates:
        if u.loc not in updatable:
            decl = _check_loc(sig, u.loc)
            if decl.kind != FunctionKind.CONTROLLED:
                raise KindViolation(
                    f"cannot update {u.loc.fname!r}: kind is {decl.kind.value}")
            updatable.add(u.loc)
        if u.val is UNDEF:  # `x := undef` empties the location
            clears.append(u.loc)
        else:
            writes[u.loc] = u.val
    return writes, tuple(clears)


def applied(content: Dict[Location, Value], writes: Dict[Location, Value],
            clears: Tuple[Location, ...]) -> Dict[Location, Value]:
    """A copy of `content` with `writes` and `clears` (from `checked`) applied;
    untouched locations keep their values."""
    out = dict(content)
    out.update(writes)
    for loc in clears:
        out.pop(loc, None)
    return out


def fire(state: State, us: UpdateSet) -> State:
    """Apply a consistent update set of controlled locations (see `checked`)."""
    return state.derive(applied(state.content, *checked(state.sig, us)))


def _digest(content: Dict[Location, Value]) -> str:
    """sha256 of the compact JSON list of `[fname, [args], value]` pairs,
    sorted by their JSON text. The pair texts are joined from each
    location's and value's cached text; sorting them compactly gives the
    order of sorting their spaced `json.dumps` texts, since the two differ
    only in a space after each `,` and `:` outside strings."""
    try:  # each slot read directly: the common case, all texts known
        pairs = [loc._text + v._text + "]" for loc, v in content.items()]
    except AttributeError:
        pairs = [loc.pair_head() + value_text(v) + "]" for loc, v in content.items()]
    pairs.sort()
    blob = "[" + ",".join(pairs) + "]"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def state_digest(state: State) -> str:
    """Stable hash of the sorted (location, value) content list."""
    return _digest(state.content)


def controlled_digest(state: State) -> str:
    """Digest over controlled content only; monitored input is excluded."""
    controlled = {d.name for d in state.sig.of_kind(FunctionKind.CONTROLLED)}
    return _digest({loc: v for loc, v in state.content.items() if loc.fname in controlled})
