"""Concrete syntax for machines: lexer, parser, resolver, pretty-printer.

The language covers assignment, par, if/then/else, let, rule calls, forall,
choose, and skip, plus machine/signature/init/main/agent declarations and
`//` line comments. `parse_machine` returns a fully resolved machine: names
bound, arities checked, assignment targets verified controlled, and every
choose construct labelled `<rule>.choose<k>` for use in choice scripts.

`pretty_print` emits a canonical rendering; parsing it back yields a
structurally equal machine, and pretty-printing that text again is a fixed
point.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .background import background_arity, is_background
from .errors import ParseError, ResolveError, SourceEncodingError
from .state import FuncDecl, FunctionKind, Signature
from .values import FALSE, TRUE, UNDEF, IntV, SetV, StrV, SymV, Value, mkset, show_value

Pos = Tuple[int, int]


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Lit(Term):
    value: Value
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(frozen=True)
class Var(Term):
    name: str
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(frozen=True)
class App(Term):
    fname: str
    args: Tuple[Term, ...] = ()
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(frozen=True)
class RuleExpr:
    pass


@dataclass(frozen=True)
class Assign(RuleExpr):
    lhs: App
    rhs: Term
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(frozen=True)
class Par(RuleExpr):
    children: Tuple[RuleExpr, ...] = ()
    pos: Optional[Pos] = field(default=None, compare=False)


SKIP = Par(())


@dataclass(frozen=True)
class If(RuleExpr):
    guard: Term
    then_op: RuleExpr
    else_op: Optional[RuleExpr] = None
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(frozen=True)
class Let(RuleExpr):
    var: str
    binding: Term
    body: RuleExpr
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(frozen=True)
class Call(RuleExpr):
    rname: str
    args: Tuple[Term, ...] = ()
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(frozen=True)
class Forall(RuleExpr):
    var: str
    domain: Term
    guard: Optional[Term]
    body: RuleExpr
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass(frozen=True)
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


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                advance()
            continue
        if ch.isdigit():
            ln, co = line, col
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("NAT", text[i:j], ln, co))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            ln, co = line, col
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token(word if word in KEYWORDS else "IDENT", word, ln, co))
            advance(j - i)
            continue
        if ch == "'":
            ln, co = line, col
            j = i + 1
            if j >= n or not (text[j].isalpha() or text[j] == "_"):
                raise ParseError("expected identifier after '", ln, co)
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("SYM", text[i + 1 : j], ln, co))
            advance(j - i)
            continue
        if ch == '"':
            ln, co = line, col
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    raise ParseError("unterminated string literal", ln, co)
                c = text[j]
                if c == '"':
                    j += 1
                    break
                if c == "\\":
                    if j + 1 >= n:
                        raise ParseError("unterminated escape in string", ln, co)
                    esc = text[j + 1]
                    buf.append({"n": "\n", "t": "\t"}.get(esc, esc))
                    j += 2
                    continue
                if c == "\n":
                    raise ParseError("unterminated string literal", ln, co)
                buf.append(c)
                j += 1
            tokens.append(Token("STRING", "".join(buf), ln, co))
            advance(j - i)
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token(p, p, line, col))
                advance(len(p))
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (produces an unresolved tree; bare identifiers parse as Var)

_MAX_DEPTH = 400


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def at(self, ttype: str) -> bool:
        return self.peek().type == ttype

    def accept(self, ttype: str) -> Optional[Token]:
        if self.at(ttype):
            return self.next()
        return None

    def expect(self, ttype: str) -> Token:
        t = self.peek()
        if t.type != ttype:
            raise ParseError(f"expected {ttype!r}, found {t.type!r}", t.line, t.col,
                             expected=ttype)
        return self.next()

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            t = self.peek()
            raise ParseError("nesting too deep", t.line, t.col)

    def _exit(self) -> None:
        self.depth -= 1

    # -- machine ------------------------------------------------------------

    def machine(self) -> "_RawMachine":
        self.expect("machine")
        name = self.expect("IDENT").value
        sigdecls: List[Tuple[str, str, int, Optional[SetV], Pos]] = []
        while self.peek().type in ("static", "controlled", "monitored", "abstract"):
            sigdecls.extend(self.sigdecl())
        rules: List[RuleDecl] = []
        if not self.at("rule"):
            t = self.peek()
            raise ParseError("expected at least one rule declaration", t.line, t.col,
                             expected="rule")
        while self.at("rule"):
            rules.append(self.ruledecl())
        init: List[Tuple[App, Term, Pos]] = []
        if self.accept("init"):
            self.expect("{")
            while not self.at("}"):
                lhs = self.lhsterm()
                self.expect(":=")
                rhs = self.term()
                init.append((lhs, rhs, lhs.pos))
            self.expect("}")
        tok = self.expect("main")
        main = self.expect("IDENT")
        agents: List[Tuple[str, str, Pos]] = []
        while self.at("agent"):
            t = self.next()
            aid = self.expect("IDENT").value
            self.expect("runs")
            rname = self.expect("IDENT").value
            agents.append((aid, rname, (t.line, t.col)))
        self.expect("EOF")
        return _RawMachine(name, sigdecls, rules, init, (main.value, (tok.line, tok.col)), agents)

    def sigdecl(self) -> List[Tuple[str, str, int, Optional[SetV], Pos]]:
        kind = self.next().value
        out = []
        while True:
            t = self.expect("IDENT")
            arity = 0
            if self.accept("/"):
                arity = int(self.expect("NAT").value)
            codomain = None
            if self.accept(":"):
                codomain = self.set_literal()
            out.append((kind, t.value, arity, codomain, (t.line, t.col)))
            if not self.accept(","):
                break
        return out

    def set_literal(self) -> SetV:
        t = self.peek()
        term = self.term()
        val = _const_eval(term)
        if not isinstance(val, SetV):
            raise ParseError("codomain hint must be a literal finite set", t.line, t.col)
        return val

    def ruledecl(self) -> RuleDecl:
        tok = self.expect("rule")
        name = self.expect("IDENT").value
        formals: List[str] = []
        if self.accept("("):
            if not self.at(")"):
                formals.append(self.expect("IDENT").value)
                while self.accept(","):
                    formals.append(self.expect("IDENT").value)
            self.expect(")")
        self.expect("=")
        body = self.op()
        return RuleDecl(name, tuple(formals), body, (tok.line, tok.col))

    # -- rule operations ------------------------------------------------------

    def lhsterm(self) -> App:
        t = self.expect("IDENT")
        args: List[Term] = []
        if self.accept("("):
            if not self.at(")"):
                args.append(self.term())
                while self.accept(","):
                    args.append(self.term())
            self.expect(")")
        return App(t.value, tuple(args), (t.line, t.col))

    def op(self) -> RuleExpr:
        self._enter()
        try:
            t = self.peek()
            if t.type == "skip":
                self.next()
                return Par((), (t.line, t.col))
            if t.type == "par":
                self.next()
                children: List[RuleExpr] = []
                while not self.at("endpar"):
                    if self.at("EOF"):
                        raise ParseError("expected 'endpar'", self.peek().line,
                                         self.peek().col, expected="endpar")
                    children.append(self.op())
                self.expect("endpar")
                return Par(tuple(children), (t.line, t.col))
            if t.type == "if":
                self.next()
                guard = self.term()
                self.expect("then")
                then_op = self.op()
                else_op = None
                if self.accept("else"):
                    else_op = self.op()
                return If(guard, then_op, else_op, (t.line, t.col))
            if t.type == "let":
                self.next()
                var = self.expect("IDENT").value
                self.expect("=")
                binding = self.term()
                self.expect("in")
                body = self.op()
                return Let(var, binding, body, (t.line, t.col))
            if t.type in ("forall", "choose"):
                self.next()
                var = self.expect("IDENT").value
                self.expect("in")
                domain = self.term()
                guard = None
                if self.accept("with"):
                    guard = self.term()
                self.expect("do")
                body = self.op()
                cls = Forall if t.type == "forall" else Choose
                return cls(var, domain, guard, body, (t.line, t.col))
            if t.type == "(":  # parenthesized operation, e.g. par A (if c then B) endpar
                self.next()
                inner = self.op()
                self.expect(")")
                return inner
            if t.type == "IDENT":
                head = self.lhsterm()
                if self.accept(":="):
                    rhs = self.term()
                    return Assign(head, rhs, head.pos)
                # a call requires the parenthesized form R(...)
                if self.tokens[self.i - 1].type == ")":
                    return Call(head.fname, head.args, head.pos)
                nxt = self.peek()
                raise ParseError("expected ':=' or call arguments", nxt.line, nxt.col,
                                 expected=":=")
            raise ParseError(f"expected an operation, found {t.type!r}", t.line, t.col)
        finally:
            self._exit()

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        self._enter()
        try:
            return self.implies_term()
        finally:
            self._exit()

    def implies_term(self) -> Term:
        left = self.or_term()
        t = self.peek()
        if self.accept("implies"):
            right = self.implies_term()  # right-associative
            return App("implies", (left, right), (t.line, t.col))
        return left

    def or_term(self) -> Term:
        left = self.and_term()
        while self.at("or"):
            t = self.next()
            right = self.and_term()
            left = App("or", (left, right), (t.line, t.col))
        return left

    def and_term(self) -> Term:
        left = self.not_term()
        while self.at("and"):
            t = self.next()
            right = self.not_term()
            left = App("and", (left, right), (t.line, t.col))
        return left

    def not_term(self) -> Term:
        if self.at("not"):
            t = self.next()
            return App("not", (self.not_term(),), (t.line, t.col))
        return self.cmp_term()

    def cmp_term(self) -> Term:
        left = self.add_term()
        t = self.peek()
        if t.type in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            right = self.add_term()
            return App(t.type, (left, right), (t.line, t.col))
        return left

    def add_term(self) -> Term:
        left = self.mul_term()
        while self.peek().type in ("+", "-"):
            t = self.next()
            right = self.mul_term()
            left = App(t.type, (left, right), (t.line, t.col))
        return left

    def mul_term(self) -> Term:
        left = self.unary_term()
        while self.peek().type in ("*", "div", "mod"):
            t = self.next()
            right = self.unary_term()
            left = App(t.type, (left, right), (t.line, t.col))
        return left

    def unary_term(self) -> Term:
        if self.at("-"):
            t = self.next()
            return App("neg", (self.unary_term(),), (t.line, t.col))
        return self.atom()

    def atom(self) -> Term:
        self._enter()
        try:
            t = self.peek()
            if t.type == "NAT":
                self.next()
                return Lit(IntV(int(t.value)), (t.line, t.col))
            if t.type == "STRING":
                self.next()
                return Lit(StrV(t.value), (t.line, t.col))
            if t.type == "SYM":
                self.next()
                return Lit(SymV(t.value), (t.line, t.col))
            if t.type == "true":
                self.next()
                return Lit(TRUE, (t.line, t.col))
            if t.type == "false":
                self.next()
                return Lit(FALSE, (t.line, t.col))
            if t.type == "undef":
                self.next()
                return Lit(UNDEF, (t.line, t.col))
            if t.type == "IDENT":
                self.next()
                if self.accept("("):
                    args: List[Term] = []
                    if not self.at(")"):
                        args.append(self.term())
                        while self.accept(","):
                            args.append(self.term())
                    self.expect(")")
                    return App(t.value, tuple(args), (t.line, t.col))
                return Var(t.value, (t.line, t.col))
            if t.type == "(":
                self.next()
                inner = self.term()
                self.expect(")")
                return inner
            if t.type == "{":
                self.next()
                if self.accept("}"):
                    return App("mkset", (), (t.line, t.col))
                first = self.term()
                if self.accept(".."):
                    hi = self.term()
                    self.expect("}")
                    return App("mkrange", (first, hi), (t.line, t.col))
                elems = [first]
                while self.accept(","):
                    elems.append(self.term())
                self.expect("}")
                return App("mkset", tuple(elems), (t.line, t.col))
            raise ParseError(f"expected a term, found {t.type!r}", t.line, t.col)
        finally:
            self._exit()


@dataclass
class _RawMachine:
    name: str
    sigdecls: List[Tuple[str, str, int, Optional[SetV], Pos]]
    rules: List[RuleDecl]
    init: List[Tuple[App, Term, Pos]]
    main: Tuple[str, Pos]
    agents: List[Tuple[str, str, Pos]]


def _const_eval(t: Term) -> Optional[Value]:
    """Evaluate a literal-only term (for codomain hints)."""
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, App) and t.fname == "mkset":
        elems = [_const_eval(a) for a in t.args]
        if any(e is None for e in elems):
            return None
        return mkset(elems)
    if isinstance(t, App) and t.fname == "mkrange":
        lo, hi = (_const_eval(a) for a in t.args)
        if isinstance(lo, IntV) and isinstance(hi, IntV):
            return mkset(IntV(n) for n in range(lo.n, hi.n + 1))
        return None
    if isinstance(t, App) and t.fname == "neg":
        v = _const_eval(t.args[0])
        return IntV(-v.n) if isinstance(v, IntV) else None
    return None


# ---------------------------------------------------------------------------
# Resolution

_KIND_OF = {
    "static": FunctionKind.STATIC,
    "controlled": FunctionKind.CONTROLLED,
    "monitored": FunctionKind.MONITORED,
    "abstract": FunctionKind.ABSTRACT,
}


class _Resolver:
    def __init__(self, raw: _RawMachine) -> None:
        self.raw = raw
        self.diags: List[Tuple[int, int, str]] = []

    def err(self, pos: Optional[Pos], msg: str) -> None:
        ln, co = pos if pos else (0, 0)
        self.diags.append((ln, co, msg))

    def build_sig(self) -> Signature:
        decls: List[FuncDecl] = []
        seen = set()
        for kind, name, arity, codomain, pos in self.raw.sigdecls:
            if name == "self":
                self.err(pos, "'self' is implicitly declared and cannot be redeclared")
                continue
            if name in seen:
                self.err(pos, f"duplicate function declaration {name!r}")
                continue
            if codomain is not None and kind != "abstract":
                self.err(pos, f"codomain hint on non-abstract function {name!r}")
            seen.add(name)
            decls.append(FuncDecl(name, arity, _KIND_OF[kind], codomain))
        # every agent reads its own id through this implicit input
        decls.append(FuncDecl("self", 0, FunctionKind.MONITORED, auto=True))
        # canonical order so structural equality survives reordered sources
        decls.sort(key=lambda d: (_KIND_ORDER[d.kind], d.name))
        return Signature(tuple(decls))

    def resolve(self) -> MachineDef:
        sig = self.build_sig()
        rule_arity: Dict[str, int] = {}
        for rd in self.raw.rules:
            if rd.name in rule_arity:
                self.err(rd.pos, f"duplicate rule declaration {rd.name!r}")
            rule_arity[rd.name] = len(rd.formals)
            if len(set(rd.formals)) != len(rd.formals):
                self.err(rd.pos, f"duplicate formal parameter in rule {rd.name!r}")

        decls: Dict[str, RuleDecl] = {}
        for rd in self.raw.rules:
            counter = [0]
            body = self.rule_expr(rd.body, sig, rule_arity, set(rd.formals), rd.name, counter)
            decls[rd.name] = RuleDecl(rd.name, rd.formals, body, rd.pos)

        init: List[Tuple[App, Term]] = []
        for lhs, rhs, pos in self.raw.init:
            decl = sig.get(lhs.fname)
            if decl is None:
                self.err(pos, f"init target {lhs.fname!r} is not declared")
                continue
            if decl.kind == FunctionKind.ABSTRACT:
                self.err(pos, f"init cannot set abstract function {lhs.fname!r}")
                continue
            if decl.arity != len(lhs.args):
                self.err(pos, f"init target {lhs.fname!r} has arity {decl.arity}")
                continue
            args = tuple(self.term(a, sig, set()) for a in lhs.args)
            init.append((App(lhs.fname, args, lhs.pos), self.term(rhs, sig, set())))

        main, main_pos = self.raw.main
        if main not in rule_arity:
            self.err(main_pos, f"main rule {main!r} is not declared")
        elif rule_arity[main] != 0:
            self.err(main_pos, f"main rule {main!r} must have no parameters")

        agents: List[Tuple[str, str]] = []
        agent_ids = set()
        for aid, rname, pos in self.raw.agents:
            if aid in agent_ids:
                self.err(pos, f"duplicate agent id {aid!r}")
            agent_ids.add(aid)
            if rname not in rule_arity:
                self.err(pos, f"agent rule {rname!r} is not declared")
            elif rule_arity[rname] != 0:
                self.err(pos, f"agent rule {rname!r} must have no parameters")
            agents.append((aid, rname))

        if self.diags:
            raise ResolveError(sorted(self.diags))
        return MachineDef(self.raw.name, sig, decls, tuple(init), main, tuple(agents))

    def term(self, t: Term, sig: Signature, scope: set) -> Term:
        if isinstance(t, Lit):
            return t
        if isinstance(t, Var):
            if t.name in scope:
                return t
            decl = sig.get(t.name)
            if decl is not None:
                if decl.arity != 0:
                    self.err(t.pos, f"{t.name!r} has arity {decl.arity}, used without arguments")
                return App(t.name, (), t.pos)
            self.err(t.pos, f"unknown name {t.name!r}")
            return t
        if isinstance(t, App):
            args = tuple(self.term(a, sig, scope) for a in t.args)
            decl = sig.get(t.fname)
            if decl is not None:
                if decl.arity != len(args):
                    self.err(t.pos, f"{t.fname!r} has arity {decl.arity}, got {len(args)}")
            elif is_background(t.fname):
                want = background_arity(t.fname)
                if want is not None and want != len(args):
                    self.err(t.pos, f"{t.fname!r} expects {want} argument(s), got {len(args)}")
            elif t.fname in scope:
                self.err(t.pos, f"bound variable {t.fname!r} cannot take arguments")
            else:
                self.err(t.pos, f"unknown function {t.fname!r}")
            return App(t.fname, args, t.pos)
        raise TypeError(f"not a term: {t!r}")

    def rule_expr(
        self,
        op: RuleExpr,
        sig: Signature,
        rules: Dict[str, int],
        scope: set,
        rname: str,
        counter: List[int],
    ) -> RuleExpr:
        rec = lambda o, sc: self.rule_expr(o, sig, rules, sc, rname, counter)
        if isinstance(op, Assign):
            decl = sig.get(op.lhs.fname)
            if decl is None:
                self.err(op.pos, f"assignment to undeclared function {op.lhs.fname!r}")
            elif decl.kind != FunctionKind.CONTROLLED:
                self.err(op.pos,
                         f"assignment to {decl.kind.value} function {op.lhs.fname!r}")
            elif decl.arity != len(op.lhs.args):
                self.err(op.pos, f"{op.lhs.fname!r} has arity {decl.arity}")
            lhs_args = tuple(self.term(a, sig, scope) for a in op.lhs.args)
            return Assign(App(op.lhs.fname, lhs_args, op.lhs.pos),
                          self.term(op.rhs, sig, scope), op.pos)
        if isinstance(op, Par):
            return Par(tuple(rec(c, scope) for c in op.children), op.pos)
        if isinstance(op, If):
            return If(self.term(op.guard, sig, scope), rec(op.then_op, scope),
                      rec(op.else_op, scope) if op.else_op is not None else None, op.pos)
        if isinstance(op, Let):
            return Let(op.var, self.term(op.binding, sig, scope),
                       rec(op.body, scope | {op.var}), op.pos)
        if isinstance(op, Call):
            if op.rname not in rules:
                self.err(op.pos, f"call to undeclared rule {op.rname!r}")
            elif rules[op.rname] != len(op.args):
                self.err(op.pos,
                         f"rule {op.rname!r} takes {rules[op.rname]} argument(s), "
                         f"got {len(op.args)}")
            return Call(op.rname, tuple(self.term(a, sig, scope) for a in op.args), op.pos)
        if isinstance(op, Forall):
            return Forall(op.var, self.term(op.domain, sig, scope),
                          self.term(op.guard, sig, scope | {op.var}) if op.guard else None,
                          rec(op.body, scope | {op.var}), op.pos)
        if isinstance(op, Choose):
            counter[0] += 1
            label = f"{rname}.choose{counter[0]}"
            return Choose(op.var, self.term(op.domain, sig, scope),
                          self.term(op.guard, sig, scope | {op.var}) if op.guard else None,
                          rec(op.body, scope | {op.var}), op.pos, label)
        raise TypeError(f"not a rule expression: {op!r}")


def parse_machine(text: str) -> MachineDef:
    """Parse and resolve machine source text."""
    return _Resolver(_Parser(_tokenize(text)).machine()).resolve()


def read_source(path: Union[str, Path]) -> str:
    """The text of a UTF-8 source file (a machine or a scenario)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise SourceEncodingError(f"{path}: {e}") from None


def parse_term(text: str, sig: Optional[Signature] = None) -> Term:
    """Parse a closed term; resolve names against `sig` when given."""
    p = _Parser(_tokenize(text))
    t = p.term()
    p.expect("EOF")
    if sig is None:
        return t
    raw = _RawMachine("t", [], [], [], ("t", (0, 0)), [])
    r = _Resolver(raw)
    resolved = r.term(t, sig, set())
    if r.diags:
        raise ResolveError(sorted(r.diags))
    return resolved


# ---------------------------------------------------------------------------
# Pretty printer

_LEVEL = {"implies": 1, "or": 2, "and": 3, "not": 4,
          "=": 5, "!=": 5, "<": 5, "<=": 5, ">": 5, ">=": 5,
          "+": 6, "-": 6, "*": 7, "div": 7, "mod": 7, "neg": 8}

_LEFT_ASSOC = {"or", "and", "+", "-", "*", "div", "mod"}


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
    if t.fname == "mkrange":
        return "{" + pp_term(t.args[0]) + " .. " + pp_term(t.args[1]) + "}"
    my = _LEVEL.get(t.fname)
    if my is None or (my is not None and len(t.args) not in (1, 2)):
        return f"{t.fname}({', '.join(pp_term(a) for a in t.args)})"
    if t.fname == "not":
        text = f"not {pp_term(t.args[0], 4)}"
    elif t.fname == "neg":
        text = f"-{pp_term(t.args[0], 8)}"
    elif t.fname == "implies":  # right-associative
        text = f"{pp_term(t.args[0], 2)} implies {pp_term(t.args[1], 1)}"
    elif t.fname in _LEFT_ASSOC:
        text = f"{pp_term(t.args[0], my)} {t.fname} {pp_term(t.args[1], my + 1)}"
    else:  # comparisons: non-associative
        text = f"{pp_term(t.args[0], my + 1)} {t.fname} {pp_term(t.args[1], my + 1)}"
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
