"""Concrete syntax for machines: lexer, parser and pretty-printer.

The language covers assignment, par, if/then/else, let, rule calls, forall,
choose, and skip, plus machine/signature/init/main/agent declarations and
`//` line comments. `parse_machine` returns a fully resolved machine: names
bound, arities checked, assignment targets verified controlled, and every
choose construct labelled `<rule>.choose<k>` for use in choice scripts.

Parsing is one pass. The signature is complete before the first rule, so
the parser resolves each name where it reads it; only rule calls wait for
the last rule, since a rule may call one declared after it. Resolution
problems are raised together, sorted, once the whole text has parsed; a
syntax error wins over them.

One operator table, `_LEVEL` with its associativity sets, drives both the
parser's precedence climbing and `pp_term`. Bracket nesting and operator
applications both count toward `_MAX_DEPTH`, so every term the parser
accepts is shallow enough to print and to evaluate recursively.

`pretty_print` emits a canonical rendering; parsing it back yields a
structurally equal machine, and pretty-printing that text again is a fixed
point.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .background import background_op, is_background
from .errors import EvalError, ManifestError, ParseError, ResolveError, SourceEncodingError
from .state import FuncDecl, FunctionKind, Signature
from .values import FALSE, TRUE, UNDEF, IntV, SetV, StrV, SymV, Value, mkset, show_value

Pos = Tuple[int, int]


# ---------------------------------------------------------------------------
# AST. Nodes are not frozen, which would make building one cost 2.5 times
# as much; `==` and `hash` leave `pos` out, and nothing changes a node once
# built but `interp`, which keeps the node's compiled closure on it.


class Term:
    pass


@dataclass(unsafe_hash=True)
class Lit(Term):
    value: Value
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class Var(Term):
    name: str
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class App(Term):
    fname: str
    args: Tuple[Term, ...] = ()
    pos: Optional[Pos] = field(default=None, compare=False)


def _subterms(t: Term):
    """`t` and every term inside it."""
    pending = [t]
    while pending:
        u = pending.pop()
        yield u
        if isinstance(u, App):
            pending.extend(reversed(u.args))


def abstract_reads(t: Term, sig: Signature) -> Iterator[App]:
    """The applications of abstract functions in `t`: only a resolver can
    evaluate them."""
    for u in _subterms(t):
        decl = sig.get(u.fname) if isinstance(u, App) else None
        if decl is not None and decl.kind == FunctionKind.ABSTRACT:
            yield u


class RuleExpr:
    pass


@dataclass(unsafe_hash=True)
class Assign(RuleExpr):
    lhs: App
    rhs: Term
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class Par(RuleExpr):
    children: Tuple[RuleExpr, ...] = ()
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class If(RuleExpr):
    guard: Term
    then_op: RuleExpr
    else_op: Optional[RuleExpr] = None
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class Let(RuleExpr):
    var: str
    binding: Term
    body: RuleExpr
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class Call(RuleExpr):
    rname: str
    args: Tuple[Term, ...] = ()
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class Forall(RuleExpr):
    var: str
    domain: Term
    guard: Optional[Term]
    body: RuleExpr
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class Choose(RuleExpr):
    var: str
    domain: Term
    guard: Optional[Term]
    body: RuleExpr
    pos: Optional[Pos] = field(default=None, compare=False)
    label: str = field(default="", compare=False)


@dataclass(frozen=True)
class RuleDecl:
    name: str
    formals: Tuple[str, ...]
    body: RuleExpr
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(frozen=True)
class MachineDef:
    name: str
    sig: Signature
    declarations: Dict[str, RuleDecl]
    init: Tuple[Tuple[App, Term], ...]
    main: str
    agents: Tuple[Tuple[str, str], ...] = ()  # (agent id, rule name)


# ---------------------------------------------------------------------------
# Lexer

KEYWORDS = {
    "machine", "static", "controlled", "monitored", "abstract", "rule", "init",
    "main", "agent", "runs", "par", "endpar", "if", "then", "else", "let", "in",
    "forall", "choose", "with", "do", "skip", "undef", "true", "false",
    "and", "or", "not", "implies", "div", "mod",
}

_PUNCT = [":=", "!=", "<=", ">=", "..", "(", ")", "{", "}", ",", "/", ":",
          "=", "<", ">", "+", "-", "*"]


@dataclass
class Token:
    type: str  # keyword, punct string, or IDENT / NAT / STRING / SYM / EOF
    value: str
    line: int
    col: int


# One scanner for every token. `\w` is exactly `str.isalnum()` or "_", so
# a word may hold any letter or digit, but it must start with a letter or
# "_"; numbers are ASCII digits only. A string is closed unless `close`
# fails to match; a character nothing else takes is `bad`.
_TOKEN = re.compile("|".join([
    r"(?P<space>[ \t\r\n]+)",
    r"(?P<comment>//[^\n]*)",
    r"(?P<NAT>[0-9]+)",
    r"(?P<word>\w+)",
    r"(?P<SYM>'\w*)",
    r'(?P<STRING>"(?:[^"\\\n]|\\[\s\S])*(?P<close>")?)',
    "(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")",
    r"(?P<bad>[\s\S])",
]))

_ESCAPE = re.compile(r"\\([\s\S])")


def _unescape(m: re.Match) -> str:
    return {"n": "\n", "t": "\t"}.get(m[1], m[1])


def _is_word_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start = 1, 0  # the current line and the index it starts at
    for m in _TOKEN.finditer(text):
        kind, value, i = m.lastgroup, m.group(), m.start()
        col = i - line_start + 1
        if kind == "space" or kind == "comment":
            pass
        elif kind == "word":
            if not _is_word_start(value[0]):
                raise ParseError(f"unexpected character {value[0]!r}", line, col)
            tokens.append(Token(value if value in KEYWORDS else "IDENT", value, line, col))
        elif kind == "punct":
            tokens.append(Token(value, value, line, col))
        elif kind == "NAT":
            tokens.append(Token("NAT", value, line, col))
        elif kind == "SYM":
            if len(value) == 1 or not _is_word_start(value[1]):
                raise ParseError("expected identifier after '", line, col)
            tokens.append(Token("SYM", value[1:], line, col))
        elif kind == "STRING":
            if m.group("close") is None:
                # the body stops short of a backslash only at the end of the text
                what = "escape in string" if text[m.end():] == "\\" else "string literal"
                raise ParseError(f"unterminated {what}", line, col)
            tokens.append(Token("STRING", _ESCAPE.sub(_unescape, value[1:-1]), line, col))
        else:
            raise ParseError(f"unexpected character {value!r}", line, col)
        if "\n" in value:
            line += value.count("\n")
            line_start = i + value.rindex("\n") + 1
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


def directive_lines(text: str) -> Iterator[Tuple[int, str, str]]:
    """The non-blank lines of a scenario or manifest as (line number,
    directive, rest), split at the first run of whitespace, each line cut at
    a `//` comment as the tokenizer finds one, so a `//` inside a string
    literal stays. A line without `//` holds no comment and is not scanned."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = len(raw) if "//" not in raw else next(
            (m.start() for m in _TOKEN.finditer(raw) if m.lastgroup == "comment"), len(raw))
        words = raw[:cut].split(None, 1)
        if words:
            yield lineno, words[0], words[1].strip() if len(words) > 1 else ""


def located(where, read, *args):
    """`read(*args)`, with a parse, resolution or evaluation error reported
    as a ManifestError that starts with `where` (say, a manifest line or a
    scenario entry), or with `where()` if it is a function."""
    try:
        return read(*args)
    except (ParseError, ResolveError, EvalError) as e:
        raise ManifestError(f"{where() if callable(where) else where}: {e}") from None


def read_input(path: Path, failure: str, resolve: bool = False) -> str:
    """`read_source`, with a failure reported as a ManifestError that
    starts with `failure` and names the path, resolved if `resolve` is set:
    only then, as resolving a path stats every component of it."""
    try:
        return read_source(path)
    except (OSError, SourceEncodingError) as e:
        if resolve:  # read again under the name the message gives
            return read_input(Path(os.path.realpath(path)), failure)
        # a SourceEncodingError's message starts with the path
        named = e if isinstance(e, SourceEncodingError) else f"{path}: {e}"
        raise ManifestError(f"{failure} {named}") from None


def file_key(path: Path) -> object:
    """What names the file at `path` however it is reached: its (device,
    inode), or `path` itself when it cannot be stat'ed, which reading it
    then reports."""
    try:
        st = path.stat()
    except OSError:
        return path
    return st.st_dev, st.st_ino


# ---------------------------------------------------------------------------
# Parser (one pass: names are resolved where they are read)

# One operator table for the parser and the printer. A higher level binds
# tighter. "not" and "neg" (written "-") are prefix; the other operators
# are binary and associate to the left or to the right as listed, the
# comparisons not at all (`a = b = c` does not parse).
_LEVEL = {"implies": 1, "or": 2, "and": 3, "not": 4,
          "=": 5, "!=": 5, "<": 5, "<=": 5, ">": 5, ">=": 5,
          "+": 6, "-": 6, "*": 7, "div": 7, "mod": 7, "neg": 8}

_LEFT_ASSOC = {"or", "and", "+", "-", "*", "div", "mod"}

_RIGHT_ASSOC = {"implies"}

_PREFIX = {"not": "not", "-": "neg"}  # token -> operator

_BINARY = {op: n for op, n in _LEVEL.items() if op not in _PREFIX.values()}

_MAX_DEPTH = 400

_KIND_OF = {
    "static": FunctionKind.STATIC,
    "controlled": FunctionKind.CONTROLLED,
    "monitored": FunctionKind.MONITORED,
    "abstract": FunctionKind.ABSTRACT,
}

_CONSTANTS = {"true": TRUE, "false": FALSE, "undef": UNDEF}

_LITERALS = {"NAT": lambda text: IntV(int(text)), "STRING": StrV, "SYM": SymV}


class _Parser:
    """Recursive descent over the tokens, resolving names as it reads.

    Without a signature (`parse_term(text)`, and codomain hints, which come
    before the signature is complete) bare identifiers stay `Var` and
    nothing is checked. Resolution problems are collected in `diags` and
    raised together by the caller once the text has parsed, so a
    `ParseError` wins over them.
    """

    def __init__(self, tokens: List[Token], sig: Optional[Signature] = None) -> None:
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.height = 0  # height of the term parsed last
        self.sig = sig
        self.scope: frozenset = frozenset()  # bound variables
        self.diags: List[Tuple[int, int, str]] = []
        self.rules: Dict[str, int] = {}  # rule name -> number of formals
        self.calls: List[Tuple[str, int, Pos]] = []  # checked after the last rule
        self.rule, self.chooses = "", 0  # the rule being read, for choose labels

    def accept(self, ttype: str) -> Optional[Token]:
        return self.expect(ttype) if self.tokens[self.i].type == ttype else None

    def expect(self, ttype: str) -> Token:
        t = self.tokens[self.i]
        if t.type != ttype:
            raise ParseError(f"expected {ttype!r}, found {t.type!r}", t.line, t.col)
        self.i += 1
        return t

    def err(self, pos: Pos, msg: str) -> None:
        self.diags.append((pos[0], pos[1], msg))

    # -- machine ------------------------------------------------------------

    def machine(self) -> MachineDef:
        self.expect("machine")
        name = self.expect("IDENT").value
        funcs: List[FuncDecl] = []
        while self.tokens[self.i].type in _KIND_OF:
            self.sigdecl(funcs)
        # every agent reads its own id through this implicit input
        funcs.append(FuncDecl("self", 0, FunctionKind.MONITORED, auto=True))
        # canonical order so structural equality survives reordered sources
        funcs.sort(key=lambda d: (_KIND_ORDER[d.kind], d.name))
        self.sig = Signature(tuple(funcs))
        if (t := self.tokens[self.i]).type != "rule":
            raise ParseError("expected at least one rule declaration", t.line, t.col)
        decls: Dict[str, RuleDecl] = {}
        while self.tokens[self.i].type == "rule":
            rd = self.ruledecl()
            decls[rd.name] = rd
        init: List[Tuple[App, Term]] = []
        if self.accept("init"):
            self.expect("{")
            while self.tokens[self.i].type != "}":
                self.init_entry(init)
            self.expect("}")
        tok = self.expect("main")
        main = self.expect("IDENT").value
        self.check_rule(main, (tok.line, tok.col), "main rule")
        agents: List[Tuple[str, str]] = []
        while t := self.accept("agent"):
            aid = self.expect("IDENT").value
            self.expect("runs")
            rname = self.expect("IDENT").value
            if aid in (a for a, _ in agents):
                self.err((t.line, t.col), f"duplicate agent id {aid!r}")
            self.check_rule(rname, (t.line, t.col), "agent rule")
            agents.append((aid, rname))
        self.expect("EOF")
        for rname, nargs, pos in self.calls:
            if rname not in self.rules:
                self.err(pos, f"call to undeclared rule {rname!r}")
            elif self.rules[rname] != nargs:
                self.err(pos, f"rule {rname!r} takes {self.rules[rname]} argument(s), "
                              f"got {nargs}")
        return MachineDef(name, self.sig, decls, tuple(init), main, tuple(agents))

    def check_rule(self, rname: str, pos: Pos, what: str) -> None:
        """`main` and agent rules: declared, and without parameters."""
        if rname not in self.rules:
            self.err(pos, f"{what} {rname!r} is not declared")
        elif self.rules[rname] != 0:
            self.err(pos, f"{what} {rname!r} must have no parameters")

    def sigdecl(self, funcs: List[FuncDecl]) -> None:
        kind = self.tokens[self.i].value
        self.i += 1
        while True:
            t = self.expect("IDENT")
            pos = (t.line, t.col)
            arity = int(self.expect("NAT").value) if self.accept("/") else 0
            codomain = self.set_literal() if self.accept(":") else None
            if t.value == "self":
                self.err(pos, "'self' is implicitly declared and cannot be redeclared")
            elif any(d.name == t.value for d in funcs):
                self.err(pos, f"duplicate function declaration {t.value!r}")
            else:
                if codomain is not None and kind != "abstract":
                    self.err(pos, f"codomain hint on non-abstract function {t.value!r}")
                funcs.append(FuncDecl(t.value, arity, _KIND_OF[kind], codomain))
            if not self.accept(","):
                break

    def set_literal(self) -> SetV:
        t = self.tokens[self.i]
        val = _const_eval(self.term())
        if not isinstance(val, SetV):
            raise ParseError("codomain hint must be a literal finite set", t.line, t.col)
        return val

    def ruledecl(self) -> RuleDecl:
        tok = self.expect("rule")
        pos = (tok.line, tok.col)
        name = self.expect("IDENT").value
        formals: List[str] = []
        if self.accept("("):
            if self.tokens[self.i].type != ")":
                formals.append(self.expect("IDENT").value)
                while self.accept(","):
                    formals.append(self.expect("IDENT").value)
            self.expect(")")
        self.expect("=")
        if name in self.rules:
            self.err(pos, f"duplicate rule declaration {name!r}")
        self.rules[name] = len(formals)
        if len(set(formals)) != len(formals):
            self.err(pos, f"duplicate formal parameter in rule {name!r}")
        self.rule, self.chooses, self.scope = name, 0, frozenset(formals)
        body = self.op()
        self.scope = frozenset()
        return RuleDecl(name, tuple(formals), body, pos)

    def init_entry(self, init: List[Tuple[App, Term]]) -> None:
        mark = len(self.diags)
        lhs = self.lhsterm(self.expect("IDENT"))
        self.expect(":=")
        rhs = self.term()
        decl = self.sig.get(lhs.fname)
        if decl is None:
            problem = f"init target {lhs.fname!r} is not declared"
        elif decl.kind == FunctionKind.ABSTRACT:
            problem = f"init cannot set abstract function {lhs.fname!r}"
        elif decl.arity != len(lhs.args):
            problem = f"init target {lhs.fname!r} has arity {decl.arity}"
        else:
            init.append((lhs, rhs))
            for u in abstract_reads(rhs, self.sig):  # init has no resolver
                self.err(u.pos, f"init term reads abstract function {u.fname!r}, "
                                "which needs a resolver")
            return
        del self.diags[mark:]  # the terms of a rejected entry are not checked
        self.err(lhs.pos, problem)

    # -- rule operations ------------------------------------------------------

    # The hot paths below read `tokens` inline, with no call per token; `op`,
    # `term` and `atom` each count one level toward _MAX_DEPTH.
    def lhsterm(self, t: Token) -> App:
        """The location named by the identifier `t`, just read."""
        args: Tuple[Term, ...] = ()
        if self.tokens[self.i].type == "(":
            self.i += 1
            args = self.terms(")")
        return App(t.value, args, (t.line, t.col))

    def op(self) -> RuleExpr:
        t = self.tokens[self.i]
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise ParseError("nesting too deep", t.line, t.col)
            kind, pos = t.type, (t.line, t.col)
            self.i += 1
            if kind == "skip":
                return Par((), pos)
            if kind == "par":
                children: List[RuleExpr] = []
                while (nxt := self.tokens[self.i]).type != "endpar":
                    if nxt.type == "EOF":
                        raise ParseError("expected 'endpar'", nxt.line, nxt.col)
                    children.append(self.op())
                self.i += 1
                return Par(tuple(children), pos)
            if kind == "if":
                guard = self.term()
                self.expect("then")
                then_op = self.op()
                return If(guard, then_op, self.op() if self.accept("else") else None, pos)
            if kind == "let":
                var = self.expect("IDENT").value
                self.expect("=")
                binding = self.term()
                self.expect("in")
                outer, self.scope = self.scope, self.scope | {var}
                body = self.op()
                self.scope = outer
                return Let(var, binding, body, pos)
            if kind in ("forall", "choose"):
                if kind == "choose":  # labels number chooses in source order
                    self.chooses += 1
                    label = f"{self.rule}.choose{self.chooses}"
                var = self.expect("IDENT").value
                self.expect("in")
                domain = self.term()
                outer, self.scope = self.scope, self.scope | {var}
                guard = self.term() if self.accept("with") else None
                self.expect("do")
                body = self.op()
                self.scope = outer
                if kind == "forall":
                    return Forall(var, domain, guard, body, pos)
                return Choose(var, domain, guard, body, pos, label)
            if kind == "(":  # parenthesized operation, e.g. par A (if c then B) endpar
                inner = self.op()
                self.expect(")")
                return inner
            if kind == "IDENT":
                head = self.lhsterm(t)
                nxt = self.tokens[self.i]
                if nxt.type == ":=":
                    self.i += 1
                    self.check_target(head)
                    return Assign(head, self.term(), pos)
                # a call requires the parenthesized form R(...)
                if self.tokens[self.i - 1].type == ")":
                    self.calls.append((head.fname, len(head.args), pos))
                    return Call(head.fname, head.args, pos)
                raise ParseError("expected ':=' or call arguments", nxt.line, nxt.col)
            raise ParseError(f"expected an operation, found {kind!r}", t.line, t.col)
        finally:
            self.depth -= 1

    def check_target(self, lhs: App) -> None:
        decl = self.sig.get(lhs.fname)
        if decl is None:
            self.err(lhs.pos, f"assignment to undeclared function {lhs.fname!r}")
        elif decl.kind != FunctionKind.CONTROLLED:
            self.err(lhs.pos, f"assignment to {decl.kind.value} function {lhs.fname!r}")
        elif decl.arity != len(lhs.args):
            self.err(lhs.pos, f"{lhs.fname!r} has arity {decl.arity}")

    # -- terms ---------------------------------------------------------------

    def term(self, level: int = 1) -> Term:
        """The operators of `level` or tighter, by precedence climbing on _LEVEL."""
        tokens = self.tokens
        t = tokens[self.i]
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise ParseError("nesting too deep", t.line, t.col)
            prefix = _PREFIX.get(t.type)
            if prefix is not None and _LEVEL[prefix] >= level:
                self.i += 1
                top = _LEVEL[prefix]
                left = self.apply(prefix, (self.term(top),), t, self.height)
            else:
                top = _LEVEL["neg"] + 1  # above the tightest level
                left = self.atom()
            # after an operator only looser ones may follow, or the same
            # level again when it associates to the left
            while level <= (my := _BINARY.get((t := tokens[self.i]).type, 0)) < top:
                self.i += 1
                below = self.height
                right = self.term(my if t.type in _RIGHT_ASSOC else my + 1)
                left = self.apply(t.type, (left, right), t, max(below, self.height))
                top = my + 1 if t.type in _LEFT_ASSOC else my
            return left
        finally:
            self.depth -= 1

    def terms(self, close: str, first: Optional[Term] = None) -> Tuple[Term, ...]:
        """Comma-separated terms up to `close`; `height` becomes the tallest one's."""
        tokens = self.tokens
        out, tallest = [], 0
        if first is not None:
            out, tallest = [first], self.height
        elif tokens[self.i].type != close:
            out.append(self.term())
            tallest = self.height
        while out and tokens[self.i].type == ",":
            self.i += 1
            out.append(self.term())
            tallest = max(tallest, self.height)
        self.expect(close)
        self.height = tallest
        return tuple(out)

    def apply(self, fname: str, args: Tuple[Term, ...], t: Token, below: int) -> App:
        """The application node over arguments at most `below` high, checked
        against the signature; each application counts toward _MAX_DEPTH."""
        self.height = below + 1
        if self.depth + self.height > _MAX_DEPTH:
            raise ParseError("nesting too deep", t.line, t.col)
        pos = (t.line, t.col)
        if self.sig is not None:
            decl = self.sig.get(fname)
            if decl is not None:
                if decl.arity != len(args):
                    self.err(pos, f"{fname!r} has arity {decl.arity}, got {len(args)}")
            elif is_background(fname):
                want, _ = background_op(fname)
                if want is not None and want != len(args):
                    self.err(pos, f"{fname!r} expects {want} argument(s), got {len(args)}")
            elif fname in self.scope:
                self.err(pos, f"bound variable {fname!r} cannot take arguments")
            else:
                self.err(pos, f"unknown function {fname!r}")
        return App(fname, args, pos)

    def name(self, t: Token) -> Term:
        """A bare identifier: a bound variable, else a 0-ary function."""
        pos = (t.line, t.col)
        if self.sig is None or t.value in self.scope:
            return Var(t.value, pos)
        decl = self.sig.get(t.value)
        if decl is None:
            self.err(pos, f"unknown name {t.value!r}")
            return Var(t.value, pos)
        if decl.arity != 0:
            self.err(pos, f"{t.value!r} has arity {decl.arity}, used without arguments")
        return App(t.value, (), pos)

    def atom(self) -> Term:
        t = self.tokens[self.i]
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise ParseError("nesting too deep", t.line, t.col)
            self.i += 1
            self.height = 0
            kind = t.type
            if kind in _LITERALS:
                return Lit(_LITERALS[kind](t.value), (t.line, t.col))
            if kind in _CONSTANTS:
                return Lit(_CONSTANTS[kind], (t.line, t.col))
            if kind == "IDENT":
                if self.tokens[self.i].type == "(":
                    self.i += 1
                    return self.apply(t.value, self.terms(")"), t, self.height)
                return self.name(t)
            if kind == "(":
                inner = self.term()
                self.expect(")")
                return inner
            if kind == "{":
                if self.tokens[self.i].type == "}":
                    self.i += 1
                    return self.apply("mkset", (), t, 0)
                first = self.term()
                if self.tokens[self.i].type == "..":
                    self.i += 1
                    below = self.height
                    hi = self.term()
                    self.expect("}")
                    return self.apply("mkrange", (first, hi), t, max(below, self.height))
                return self.apply("mkset", self.terms("}", first), t, self.height)
            raise ParseError(f"expected a term, found {kind!r}", t.line, t.col)
        finally:
            self.depth -= 1


def _const_eval(t: Term) -> Optional[Value]:
    """Evaluate a literal-only term (for codomain hints)."""
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, App) and t.fname == "mkset":
        elems = [_const_eval(a) for a in t.args]
        return None if any(e is None for e in elems) else mkset(elems)
    if isinstance(t, App) and t.fname == "mkrange":
        lo, hi = (_const_eval(a) for a in t.args)
        if isinstance(lo, IntV) and isinstance(hi, IntV):
            return mkset(IntV(n) for n in range(lo.n, hi.n + 1))
        return None
    if isinstance(t, App) and t.fname == "neg":
        v = _const_eval(t.args[0])
        return IntV(-v.n) if isinstance(v, IntV) else None
    return None


def _resolved(p: _Parser, result):
    if p.diags:
        raise ResolveError(sorted(p.diags))
    return result


def parse_machine(text: str) -> MachineDef:
    """Parse and resolve machine source text."""
    p = _Parser(_tokenize(text))
    return _resolved(p, p.machine())


def read_source(path: Union[str, Path]) -> str:
    """The text of a UTF-8 source file (a machine or a scenario)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise SourceEncodingError(f"{path}: {e}") from None


def parse_term(text: str, sig: Optional[Signature] = None) -> Term:
    """Parse a closed term; resolve names against `sig` when given."""
    p = _Parser(_tokenize(text), sig)
    t = p.term()
    p.expect("EOF")
    return _resolved(p, t)


# ---------------------------------------------------------------------------
# Pretty printer


def pp_term(t: Term, level: int = 0) -> str:
    if isinstance(t, Lit):
        return show_value(t.value)
    if isinstance(t, Var):
        return t.name
    assert isinstance(t, App)
    if not t.args and t.fname not in _LEVEL and t.fname != "mkset":
        return t.fname
    if t.fname == "mkset":
        return "{" + ", ".join(pp_term(a) for a in t.args) + "}"
    if t.fname == "mkrange" and len(t.args) == 2:
        return "{" + pp_term(t.args[0]) + " .. " + pp_term(t.args[1]) + "}"
    my = _LEVEL.get(t.fname)
    if my is None or len(t.args) != (1 if t.fname in _PREFIX.values() else 2):
        return f"{t.fname}({', '.join(pp_term(a) for a in t.args)})"
    if len(t.args) == 1:
        text = ("not " if t.fname == "not" else "-") + pp_term(t.args[0], my)
    else:
        left = my if t.fname in _LEFT_ASSOC else my + 1
        right = my if t.fname in _RIGHT_ASSOC else my + 1
        text = f"{pp_term(t.args[0], left)} {t.fname} {pp_term(t.args[1], right)}"
    return f"({text})" if my < level else text


def pp_rule_expr(op: RuleExpr, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(op, Assign):
        return f"{pad}{pp_term(op.lhs)} := {pp_term(op.rhs)}"
    if isinstance(op, Par):
        if not op.children:
            return f"{pad}skip"
        inner = "\n".join(pp_rule_expr(c, indent + 1) for c in op.children)
        return f"{pad}par\n{inner}\n{pad}endpar"
    if isinstance(op, If):
        out = f"{pad}if {pp_term(op.guard)} then\n{pp_rule_expr(op.then_op, indent + 1)}"
        if op.else_op is not None:
            out += f"\n{pad}else\n{pp_rule_expr(op.else_op, indent + 1)}"
        return out
    if isinstance(op, Let):
        return f"{pad}let {op.var} = {pp_term(op.binding)} in\n" \
               f"{pp_rule_expr(op.body, indent + 1)}"
    if isinstance(op, Call):
        return f"{pad}{op.rname}({', '.join(pp_term(a) for a in op.args)})"
    if isinstance(op, (Forall, Choose)):
        kw = "forall" if isinstance(op, Forall) else "choose"
        guard = f" with {pp_term(op.guard)}" if op.guard is not None else ""
        return f"{pad}{kw} {op.var} in {pp_term(op.domain)}{guard} do\n" \
               f"{pp_rule_expr(op.body, indent + 1)}"
    raise TypeError(f"not a rule expression: {op!r}")


_KIND_ORDER = {FunctionKind.STATIC: 0, FunctionKind.CONTROLLED: 1,
               FunctionKind.MONITORED: 2, FunctionKind.ABSTRACT: 3}


def pretty_print(m: MachineDef) -> str:
    lines = [f"machine {m.name}"]
    for d in sorted(m.sig.entries, key=lambda d: (_KIND_ORDER[d.kind], d.name)):
        if d.auto:
            continue
        entry = f"  {d.kind.value} {d.name}"
        if d.arity > 0:
            entry += f"/{d.arity}"
        if d.codomain is not None:
            entry += " : " + show_value(d.codomain)
        lines.append(entry)
    for name in sorted(m.declarations):
        rd = m.declarations[name]
        formals = f"({', '.join(rd.formals)})" if rd.formals else ""
        lines.append(f"  rule {rd.name}{formals} =")
        lines.append(pp_rule_expr(rd.body, 2))
    if m.init:
        lines.append("  init {")
        for lhs, rhs in m.init:
            lines.append(f"    {pp_term(lhs)} := {pp_term(rhs)}")
        lines.append("  }")
    lines.append(f"  main {m.main}")
    for aid, rname in m.agents:
        lines.append(f"  agent {aid} runs {rname}")
    return "\n".join(lines) + "\n"
