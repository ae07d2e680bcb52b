"""Random machine and rule generators shared by the property tests.

Machines are built as ASTs over a fixed five-location vocabulary
(b1, b2 boolean; n1, n2 integers; f/1 integer-indexed), then
pretty-printed and re-parsed so they go through exactly the same
resolution pipeline as hand-written sources. The vocabulary is typed so
that guards stay boolean in every reachable state: b1/b2 only ever
receive booleans, n1/n2 only total integer terms, and possibly-undef
values (reads of f) flow only into f itself, which no guard reads.
Generated machines therefore run for any number of steps without
evaluation errors. `random_call_machine` moves subtrees into rules with
parameters, recursive calls included; its machines are for the
normalizer, not for running. `random_agent_machine` adds agents whose
rules also read and write `self`-indexed locations and pass a shared
token between them.

The random PGA rules (assignment, par and if only) at the end use their
own vocabulary, `PGA_BOOL_LOCS` and `PGA_INT_LOCS`, over the machine from
`pga_test_machine`, and are compared on the space from `pga_test_space`.
"""
from __future__ import annotations

import functools
import random
from typing import Callable, Dict, List, Optional, Tuple

from asmweave.parser import (
    App,
    Assign,
    Call,
    Choose,
    Forall,
    If,
    Let,
    Lit,
    MachineDef,
    Par,
    RuleDecl,
    RuleExpr,
    Term,
    Var,
    parse_machine,
    pretty_print,
)
from asmweave.state import FuncDecl, FunctionKind, Location, Signature
from asmweave.values import FALSE, TRUE, UNDEF, IntV, StrV, SymV, Value, mkset

BOOL_LOCS = ("b1", "b2")
INT_LOCS = ("n1", "n2")


def _total_int(rng: random.Random, vars_in_scope: Tuple[str, ...]) -> Term:
    roll = rng.random()
    if vars_in_scope and roll < 0.3:
        return Var(rng.choice(vars_in_scope))
    if roll < 0.6:
        return Lit(IntV(rng.randrange(3)))
    return App(rng.choice(INT_LOCS), ())


def _int_rhs(rng: random.Random, vars_in_scope: Tuple[str, ...]) -> Term:
    """Total integer term; safe for locations that guards may later read."""
    if rng.random() < 0.3:
        return App("+", (_total_int(rng, vars_in_scope), _total_int(rng, vars_in_scope)))
    return _total_int(rng, vars_in_scope)


def _any_int(rng: random.Random, vars_in_scope: Tuple[str, ...]) -> Term:
    # may be undef; only ever assigned into f, which no guard reads
    if rng.random() < 0.3:
        return App("f", (_total_int(rng, vars_in_scope),))
    return _int_rhs(rng, vars_in_scope)


def _bool_term(rng: random.Random, vars_in_scope: Tuple[str, ...], depth: int = 2) -> Term:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        pick = rng.random()
        if pick < 0.2:
            return Lit(TRUE) if rng.random() < 0.5 else Lit(FALSE)
        if pick < 0.6:
            return App(rng.choice(BOOL_LOCS), ())
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return App(op, (_total_int(rng, vars_in_scope), _total_int(rng, vars_in_scope)))
    if roll < 0.5:
        return App("not", (_bool_term(rng, vars_in_scope, depth - 1),))
    op = rng.choice(["and", "or"])
    return App(op, (_bool_term(rng, vars_in_scope, depth - 1),
                    _bool_term(rng, vars_in_scope, depth - 1)))


def _assign(rng: random.Random, vars_in_scope: Tuple[str, ...]) -> Assign:
    roll = rng.random()
    if roll < 0.3:
        return Assign(App(rng.choice(BOOL_LOCS), ()), _bool_term(rng, vars_in_scope, 1))
    if roll < 0.6:
        return Assign(App(rng.choice(INT_LOCS), ()), _int_rhs(rng, vars_in_scope))
    return Assign(App("f", (_total_int(rng, vars_in_scope),)),
                  _any_int(rng, vars_in_scope))


_SMALL_RANGE = App("mkrange", (Lit(IntV(0)), Lit(IntV(2))))


def random_rule(rng: random.Random, depth: int,
                vars_in_scope: Tuple[str, ...] = (),
                child: Optional[Callable[[int, Tuple[str, ...]], RuleExpr]] = None) -> RuleExpr:
    """Random rule over the shared vocabulary, any of the seven constructs.
    `child(depth, vars_in_scope)`, when given, builds each sub-rule."""
    if child is None:
        child = functools.partial(random_rule, rng)
    if depth <= 0:
        return _assign(rng, vars_in_scope)
    roll = rng.random()
    if roll < 0.30:
        return _assign(rng, vars_in_scope)
    if roll < 0.50:
        children = tuple(child(depth - 1, vars_in_scope)
                         for _ in range(rng.randrange(1, 4)))
        return Par(children)
    if roll < 0.70:
        else_op = child(depth - 1, vars_in_scope) if rng.random() < 0.4 else None
        return If(_bool_term(rng, vars_in_scope), child(depth - 1, vars_in_scope),
                  else_op)
    # binders are v1, v2, ... from the outside in; other names are formals
    var = f"v{sum(v.startswith('v') for v in vars_in_scope) + 1}"
    inner = vars_in_scope + (var,)
    if roll < 0.80:
        # bindings stay total so bound variables remain safe inside guards
        return Let(var, _total_int(rng, vars_in_scope), child(depth - 1, inner))
    guard = _bool_term(rng, inner, 1) if rng.random() < 0.5 else None
    body = child(depth - 1, inner)
    if roll < 0.90:
        return Forall(var, _SMALL_RANGE, guard, body)
    return Choose(var, _SMALL_RANGE, guard, body)


_SIG = Signature((
    FuncDecl("b1", 0, FunctionKind.CONTROLLED),
    FuncDecl("b2", 0, FunctionKind.CONTROLLED),
    FuncDecl("n1", 0, FunctionKind.CONTROLLED),
    FuncDecl("n2", 0, FunctionKind.CONTROLLED),
    FuncDecl("f", 1, FunctionKind.CONTROLLED),
))


def _random_init(rng: random.Random) -> Tuple[Tuple[App, Term], ...]:
    entries: List[Tuple[App, Term]] = [
        (App("b1", ()), Lit(TRUE) if rng.random() < 0.5 else Lit(FALSE)),
        (App("b2", ()), Lit(TRUE) if rng.random() < 0.5 else Lit(FALSE)),
        (App("n1", ()), Lit(IntV(rng.randrange(3)))),
        (App("n2", ()), Lit(IntV(rng.randrange(3)))),
    ]
    for k in range(rng.randrange(3)):
        entries.append((App("f", (Lit(IntV(k)),)), Lit(IntV(rng.randrange(3)))))
    return tuple(entries)


def random_machine(rng: random.Random, name: str = "Gen", depth: int = 4,
                   body: RuleExpr = None) -> MachineDef:
    """Build, pretty-print, and re-parse a random machine (canonical form)."""
    if body is None:
        body = random_rule(rng, depth)
    draft = MachineDef(
        name=name,
        sig=_SIG,
        declarations={"Main": RuleDecl("Main", (), body)},
        init=_random_init(rng),
        main="Main",
    )
    return parse_machine(pretty_print(draft))


def random_par_machine(rng: random.Random, name: str = "GenPar") -> MachineDef:
    """Machine whose main body is a par of 2-4 arbitrary children."""
    children = tuple(random_rule(rng, 3) for _ in range(rng.randrange(2, 5)))
    return random_machine(rng, name, body=Par(children))


def random_call_machine(rng: random.Random, name: str = "GenCall",
                        depth: int = 4) -> MachineDef:
    """Machine whose random rule has subtrees moved into rules with
    parameters p1, p2, ..., each replaced by a call. Every rule names its
    outermost binders v1, so most calls made under a binder pass one, and
    the callee's binder of that name must be renamed when it is
    substituted. About one call in four names a rule that is already
    being built, which makes a recursive call."""
    decls: Dict[str, RuleDecl] = {}
    arity: Dict[str, int] = {"Main": 0}

    def args(scope: Tuple[str, ...], n: int) -> Tuple[Term, ...]:
        out = [_total_int(rng, scope) for _ in range(n)]
        binders = [v for v in scope if v.startswith("v")]
        if out and binders and rng.random() < 0.7:
            out[rng.randrange(n)] = Var(rng.choice(binders))
        return tuple(out)

    def build(d: int, scope: Tuple[str, ...], stack: Tuple[str, ...]) -> RuleExpr:
        roll = rng.random()
        if d > 0 and roll < 0.08:
            callee = rng.choice(stack)
            return Call(callee, args(scope, arity[callee]))
        if d > 0 and roll < 0.3:
            callee = f"R{len(arity)}"
            arity[callee] = rng.randrange(1, 4)
            formals = tuple(f"p{i}" for i in range(1, arity[callee] + 1))
            decls[callee] = RuleDecl(callee, formals, build(d, formals, stack + (callee,)))
            return Call(callee, args(scope, len(formals)))
        return random_rule(rng, d, scope, lambda d2, s2: build(d2, s2, stack))

    decls["Main"] = RuleDecl("Main", (), build(depth, (), ("Main",)))
    draft = MachineDef(name=name, sig=_SIG, declarations=decls,
                       init=_random_init(rng), main="Main")
    return parse_machine(pretty_print(draft))


_AGENT_SIG = Signature(_SIG.entries + (
    FuncDecl("tok", 0, FunctionKind.CONTROLLED),
    FuncDecl("mine", 1, FunctionKind.CONTROLLED),
    FuncDecl("cnt", 1, FunctionKind.CONTROLLED),
))
_SELF = App("self", ())


def random_agent_machine(rng: random.Random, name: str = "GenAgents",
                         depth: int = 3) -> MachineDef:
    """Machine with two or three agents a0, a1, ... over the shared
    vocabulary plus a shared token `tok` (always an agent id) and the
    agent-indexed `mine/1` (boolean) and `cnt/1` (integer). Agents run one
    shared rule or one rule each; sub-rules read and write the agent's own
    `mine(self)` and `cnt(self)`, and the token holder may pass it on."""
    aids = [f"a{i}" for i in range(rng.randrange(2, 4))]
    mine, cnt = App("mine", (_SELF,)), App("cnt", (_SELF,))

    def own(d: int, scope: Tuple[str, ...]) -> RuleExpr:
        roll = rng.random()
        if d <= 0 or roll < 0.5:
            return random_rule(rng, d, scope, own)
        if roll < 0.6:
            return Assign(mine, _bool_term(rng, scope, 1) if rng.random() < 0.5
                          else App("not", (mine,)))
        if roll < 0.7:
            return Assign(cnt, App("+", (cnt, Lit(IntV(1)))) if rng.random() < 0.5
                          else _int_rhs(rng, scope))
        if roll < 0.85:
            guard = rng.choice([mine, App("<", (cnt, Lit(IntV(2)))),
                                App("=", (App("tok", ()), _SELF))])
            return If(guard, own(d - 1, scope))
        handoff = Assign(App("tok", ()), Lit(SymV(rng.choice(aids))))
        return If(App("=", (App("tok", ()), _SELF)), handoff,
                  Assign(App(rng.choice(INT_LOCS), ()), cnt))

    rules = ["Step"] if rng.random() < 0.4 else [f"R{i}" for i in range(len(aids))]
    decls = {r: RuleDecl(r, (), Par(tuple(own(depth, ()) for _ in range(rng.randrange(1, 4)))))
             for r in rules}
    init = list(_random_init(rng)) + [(App("tok", ()), Lit(SymV(rng.choice(aids))))]
    for aid in aids:
        init.append((App("mine", (Lit(SymV(aid)),)), Lit(TRUE) if rng.random() < 0.5
                     else Lit(FALSE)))
        init.append((App("cnt", (Lit(SymV(aid)),)), Lit(IntV(rng.randrange(3)))))
    agents = tuple((aid, rules[i % len(rules)]) for i, aid in enumerate(aids))
    draft = MachineDef(name=name, sig=_AGENT_SIG, declarations=decls,
                       init=tuple(init), main=rules[0], agents=agents)
    return parse_machine(pretty_print(draft))


# ---------------------------------------------------------------------------
# Random PGA rules for property testing

_PGA_SOURCE = """
machine PgaBench
  controlled b1, b2, b3, n1, n2
  rule Noop = skip
  main Noop
"""

PGA_BOOL_LOCS = ("b1", "b2", "b3")
PGA_INT_LOCS = ("n1", "n2")


def pga_test_machine() -> MachineDef:
    """Five-location machine the random PGA rules are written against."""
    return parse_machine(_PGA_SOURCE)


def pga_test_space() -> List[Tuple[Location, List[Value]]]:
    bools: List[Value] = [TRUE, FALSE]
    ints: List[Value] = [IntV(0), IntV(1), IntV(2)]
    space: List[Tuple[Location, List[Value]]] = []
    space += [(Location(n), list(bools)) for n in PGA_BOOL_LOCS]
    space += [(Location(n), list(ints)) for n in PGA_INT_LOCS]
    return space


def _rand_int_term(rng: random.Random) -> Term:
    if rng.random() < 0.5:
        return Lit(IntV(rng.randrange(3)))
    return App(rng.choice(PGA_INT_LOCS), ())


def _rand_bool_term(rng: random.Random, depth: int) -> Term:
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        pick = rng.random()
        if pick < 0.2:
            return Lit(TRUE) if rng.random() < 0.5 else Lit(FALSE)
        if pick < 0.6:
            return App(rng.choice(PGA_BOOL_LOCS), ())
        op = rng.choice(["=", "<", "<=", ">", ">="])
        return App(op, (_rand_int_term(rng), _rand_int_term(rng)))
    if roll < 0.5:
        return App("not", (_rand_bool_term(rng, depth - 1),))
    op = rng.choice(["and", "or"])
    return App(op, (_rand_bool_term(rng, depth - 1), _rand_bool_term(rng, depth - 1)))


def _rand_assign(rng: random.Random) -> Assign:
    if rng.random() < 0.5:
        return Assign(App(rng.choice(PGA_BOOL_LOCS), ()), _rand_bool_term(rng, 1))
    return Assign(App(rng.choice(PGA_INT_LOCS), ()), _rand_int_term(rng))


def random_pga_rule(rng: random.Random, max_depth: int = 4) -> RuleExpr:
    """A random rule over the bench machine using only assign/par/if."""
    if max_depth <= 0:
        return _rand_assign(rng)
    roll = rng.random()
    if roll < 0.35:
        return _rand_assign(rng)
    if roll < 0.70:
        children = tuple(random_pga_rule(rng, max_depth - 1)
                         for _ in range(rng.randrange(1, 4)))
        return Par(children)
    else_op = random_pga_rule(rng, max_depth - 1) if rng.random() < 0.4 else None
    return If(_rand_bool_term(rng, 2), random_pga_rule(rng, max_depth - 1), else_op)


def _total_guard(rng: random.Random, depth: int) -> Term:
    """A guard that is boolean in every state: comparisons by `=` joined
    by and, or and not."""
    if depth <= 0 or rng.random() < 0.4:
        names = PGA_BOOL_LOCS + PGA_INT_LOCS
        other = rng.choice([App(rng.choice(names), ()), Lit(IntV(rng.randrange(3))), Lit(TRUE)])
        return App("=", (App(rng.choice(names), ()), other))
    if rng.random() < 0.3:
        return App("not", (_total_guard(rng, depth - 1),))
    return App(rng.choice(["and", "or"]), (_total_guard(rng, depth - 1),
                                           _total_guard(rng, depth - 1)))


def random_total_pga_source(rng: random.Random, name: str = "Total") -> str:
    """The source of a machine over the PGA vocabulary whose main rule is a
    par of ifs with total guards, each writing one location: it yields one
    update set in every state of any space."""
    clauses = tuple(If(_total_guard(rng, 2), _rand_assign(rng), _rand_assign(rng))
                    for _ in range(rng.randrange(2, 5)))
    machine = pga_test_machine()
    draft = MachineDef(name=name, sig=machine.sig,
                       declarations={"Main": RuleDecl("Main", (), Par(clauses))},
                       init=(), main="Main")
    return pretty_print(draft)


# Values and contents for the digest and export oracle tests: strings
# that hold JSON's own separators, quotes, escapes and non-ASCII text, so
# that a text built piecewise must escape and order them as `json.dumps`.
TRICKY_TEXTS = ("", " ", "a", "a, b", '", "', '": "', "x: y", '"', "\\", '\\"', "]", "[",
                "{}", ",", ":", "\n\t", "\x00\x1f", "é", "ü, ö", "中文", "😀", "\ud800",
                "undef", "1")


def random_value(rng: random.Random, depth: int = 2) -> Value:
    """Any value: undef, booleans, ints, tricky strings and symbols, and
    sets of them, nested up to `depth`."""
    roll = rng.randrange(7 if depth > 0 else 6)
    if roll == 0:
        return UNDEF
    if roll == 1:
        return TRUE if rng.random() < 0.5 else FALSE
    if roll == 2:
        return IntV(rng.choice((0, 1, -1, 9, 10, -10, 12, 2**70, -2**64)))
    if roll in (3, 4):
        return StrV(rng.choice(TRICKY_TEXTS) + rng.choice(TRICKY_TEXTS))
    if roll == 5:
        return SymV(rng.choice(TRICKY_TEXTS))
    return mkset(v for v in (random_value(rng, depth - 1) for _ in range(rng.randrange(4)))
                 if v is not UNDEF)


def random_location(rng: random.Random) -> Location:
    """A location of arity 0 to 3 under a short function name, its
    arguments (undef among them) from `random_value`."""
    return Location(rng.choice(("f", "g", "f_1", "fé", "h\"")),
                    tuple(random_value(rng, 1) for _ in range(rng.randrange(4))))


def random_content(rng: random.Random, size: int) -> Dict[Location, Value]:
    """Up to `size` locations with defined values, as a state holds them."""
    content = {random_location(rng): random_value(rng) for _ in range(size)}
    return {loc: v for loc, v in content.items() if v is not UNDEF}
