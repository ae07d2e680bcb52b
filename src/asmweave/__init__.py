"""Toolkit for executable abstract state machines: parse, run, normalize,
explore, and check refinements between machines."""

from .errors import AsmError, ParseError, ResolveError
from .parser import MachineDef, parse_machine, parse_term, pretty_print
from .state import (
    FunctionKind,
    Location,
    Signature,
    State,
    Update,
    UpdateSet,
    conflicts,
    fire,
    lookup,
)
from .interp import (
    Resolver,
    Trace,
    enumerate_steps,
    eval_term,
    initial_state,
    run,
    step,
    update_set,
)
from .values import UNDEF, BoolV, IntV, SetV, StrV, SymV, Value

__version__ = "0.1.0"

__all__ = [
    "AsmError", "ParseError", "ResolveError",
    "MachineDef", "parse_machine", "parse_term", "pretty_print",
    "FunctionKind", "Location", "Signature", "State", "Update", "UpdateSet",
    "conflicts", "fire", "lookup",
    "Resolver", "Trace", "enumerate_steps", "eval_term",
    "initial_state", "run", "step", "update_set",
    "UNDEF", "BoolV", "IntV", "SetV", "StrV", "SymV", "Value",
]
