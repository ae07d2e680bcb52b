"""Exception hierarchy shared by all asmweave modules."""
from __future__ import annotations

from typing import Optional

from .values import show_value, value_key


class AsmError(Exception):
    """Base class for all toolkit errors."""


class ParseError(AsmError):
    """Raised when source text cannot be tokenized or parsed."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class SourceEncodingError(AsmError):
    """Raised when a source file is not UTF-8; the message names the file."""


class ResolveError(AsmError):
    """Raised after parsing when names, arities, or kinds do not check out.

    Carries every diagnostic found, not just the first.
    """

    def __init__(self, diagnostics: list[tuple[int, int, str]]) -> None:
        lines = "; ".join(f"{ln}:{col}: {msg}" for ln, col, msg in diagnostics)
        super().__init__(lines)
        self.diagnostics = diagnostics


class EvalError(AsmError):
    """Base for errors raised while evaluating terms or rules.

    `pos` is the (line, col) of the failing construct when known.
    """

    def __init__(self, message: str, pos: Optional[tuple[int, int]] = None) -> None:
        super().__init__(message if pos is None else f"{pos[0]}:{pos[1]}: {message}")
        self.pos = pos


class UnknownFunction(EvalError):
    pass


class ArityMismatch(EvalError):
    pass


class KindViolation(EvalError):
    pass


class UnboundVariable(EvalError):
    pass


class BackgroundError(EvalError):
    pass


class GuardNotBoolean(EvalError):
    pass


class RangeNotSet(EvalError):
    pass


class CallDepthExceeded(EvalError):
    pass


class ScriptViolation(EvalError):
    pass


class UnboundedAbstract(EvalError):
    pass


class InconsistentUpdateSet(AsmError):
    """An update set assigned two distinct values to one location.

    `clashes` lists every offending location with all values it received.
    """

    def __init__(self, clashes: list) -> None:
        super().__init__("inconsistent update set: " + "; ".join(
            f"{loc.show()} <- {{{', '.join(map(show_value, sorted(vals, key=value_key)))}}}"
            for loc, vals in clashes))
        self.clashes = clashes


class BranchBudgetExceeded(AsmError):
    def __init__(self, bound: int) -> None:
        super().__init__(f"branch budget of {bound} exceeded")


class SpaceTooLarge(AsmError):
    def __init__(self, size: int, budget: int) -> None:
        super().__init__(f"state space of {size} exceeds budget {budget}")


class NotPGA(AsmError):
    def __init__(self, offending: list) -> None:
        super().__init__(f"rule is not parallel-guarded-assignment: {offending}")
        self.offending = offending


class RecursiveCall(AsmError):
    def __init__(self, rname: str) -> None:
        super().__init__(f"rule {rname!r} is (mutually) recursive and cannot be inlined")
        self.rname = rname


class ManifestError(AsmError):
    """Raised for malformed refinement manifests or scenario files."""
