"""Seeded input generators for the benchmark.

Every input is produced here as source text from a `random.Random`, so
the same workload seed always yields the same files. Nothing is taken
from the program's own generators: the program under test only ever sees
the text written out.

Generated machines keep a fixed shape (the same statements, ranges and
domains for every seed) and vary only names, constants, operators and
arrangement, so the work per input hardly depends on the seed.
"""
from __future__ import annotations

import random
import re
from typing import Dict, List, Tuple

# ---------------------------------------------------------------------------
# Ring models: agent ids renamed and agent lines reordered.
#
# A consistent renaming of agent ids is an isomorphism of the state graph,
# so state counts and the shortest counterexample length of the bundled
# ring models hold for every seed.


def agent_names(rng: random.Random, n: int) -> List[str]:
    """n distinct agent ids such as `r47`."""
    return [f"r{k}" for k in rng.sample(range(10, 100), n)]


def rename_ring(text: str, names: List[str], rng: random.Random) -> str:
    """Rename agents m0..m{n-1} of a bundled ring model to `names`, and
    shuffle the order of its `agent` declarations."""
    renamed = re.sub(r"\bm(\d)\b", lambda m: names[int(m.group(1))], text)
    lines = renamed.splitlines()
    agent_idx = [i for i, line in enumerate(lines) if line.strip().startswith("agent ")]
    decls = [lines[i] for i in agent_idx]
    rng.shuffle(decls)
    for i, line in zip(agent_idx, decls):
        lines[i] = line
    return "\n".join(lines) + "\n"


def ring_safety(names: List[str]) -> str:
    """The README's safety assertion for a ring, with renamed agents."""
    passive = " and ".join(f"active('{a}) = false" for a in names)
    return f"detected implies ({passive})"


# ---------------------------------------------------------------------------
# Random machines using all seven rule constructs.
#
# Each controlled location is written by exactly one statement (the two
# branches of an `if` are exclusive, `forall` writes f(i) for distinct i),
# so update sets never clash and every run lasts its full length. Integers
# stay in 0..4 through `mod 5`, so guards never see undef.

INTS = ("n1", "n2", "n3")
BOOLS = ("b1", "b2")
CMP = ("<", "<=", ">", ">=", "=")


def _int_term(rng: random.Random, extra: Tuple[str, ...] = ()) -> str:
    atoms = INTS + extra
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(atoms)
    if roll < 0.5:
        return str(rng.randrange(5))
    return f"({rng.choice(atoms)} + {rng.choice(atoms + ('1', '2', '3'))}) mod 5"


def _bool_term(rng: random.Random, extra: Tuple[str, ...] = ()) -> str:
    roll = rng.random()
    if roll < 0.25:
        return rng.choice(BOOLS)
    if roll < 0.4:
        return f"not {rng.choice(BOOLS)}"
    cmp = f"{_int_term(rng, extra)} {rng.choice(CMP)} {rng.randrange(5)}"
    if roll < 0.75:
        return cmp
    return f"({rng.choice(BOOLS)} {rng.choice(('and', 'or'))} {cmp})"


def _rhs(rng: random.Random, target: str, extra: Tuple[str, ...] = ()) -> str:
    if target in BOOLS:
        return _bool_term(rng, extra)
    return _int_term(rng, extra)


def random_machine(rng: random.Random, name: str) -> str:
    """Source of a machine whose main rule uses assignment, par, if, let,
    a rule call, forall and choose."""
    targets = list(INTS + BOOLS)
    rng.shuffle(targets)
    kinds = ["assign", "if", "let", "call", "choose"]
    helper = ""
    stmts: List[str] = []
    for kind, target in zip(kinds, targets):
        if kind == "assign":
            stmt = f"{target} := {_rhs(rng, target)}"
        elif kind == "if":
            stmt = (f"if {_bool_term(rng)} then {target} := {_rhs(rng, target)} "
                    f"else {target} := {_rhs(rng, target)}")
        elif kind == "let":
            stmt = f"let y = {_int_term(rng)} in {target} := {_rhs(rng, target, ('y',))}"
        elif kind == "call":
            helper = f"  rule Helper(x) = {target} := {_rhs(rng, target, ('x',))}\n"
            stmt = f"Helper({_int_term(rng)})"
        else:
            stmt = (f"choose v in {{0 .. 4}} with not (v = {rng.choice(INTS)}) "
                    f"do {target} := {_rhs(rng, target, ('v',))}")
        stmts.append(stmt)
    stmts.append(f"forall i in {{0 .. 3}} with not (i = {rng.choice(INTS)}) "
                 f"do f(i) := (i + {rng.choice(INTS)}) mod 5")
    rng.shuffle(stmts)
    # nest two statements one level deeper
    stmts[0] = f"let z = {_int_term(rng)} in {stmts[0]}"
    stmts[1] = f"let z = {_int_term(rng)} in {stmts[1]}"
    body = "\n".join(f"      {s}" for s in stmts)
    inits = " ".join(f"{n} := {rng.randrange(5)}" for n in INTS)
    inits += " " + " ".join(f"{b} := {rng.choice(('true', 'false'))}" for b in BOOLS)
    return (f"machine {name}\n"
            f"  controlled n1, n2, n3, b1, b2, f/1\n"
            f"{helper}"
            f"  rule Main =\n    par\n{body}\n    endpar\n"
            f"  init {{ {inits} }}\n"
            f"  main Main\n")


# ---------------------------------------------------------------------------
# Random parallel guarded assignments (assignment, par and if only).

PGA_LOCS = ("p", "q", "r")  # three 0-ary locations: 6^3 = 216 states to compare


def _pga_atom(rng: random.Random) -> str:
    a, b = rng.sample(PGA_LOCS, 2)
    return rng.choice((f"{a} = {b}", f"{a} = {rng.randrange(3)}",
                       f"{a} = true", f"not ({a} = {b})"))


def _pga_guard(rng: random.Random) -> str:
    return f"({_pga_atom(rng)} {rng.choice(('and', 'or'))} {_pga_atom(rng)})"


def _pga_value(rng: random.Random) -> str:
    return rng.choice(PGA_LOCS + ("0", "1", "2", "true", "false"))


def random_pga_machine(rng: random.Random, name: str) -> str:
    """A machine whose main rule is a parallel guarded assignment with six
    assignments, each location written under mutually exclusive guards
    nested below a par and an if."""
    clauses = []
    for loc in PGA_LOCS:
        g = _pga_guard(rng)
        clauses.append(f"if {g} then {loc} := {_pga_value(rng)} "
                       f"else {loc} := {_pga_value(rng)}")
    rng.shuffle(clauses)
    # a guard that always holds keeps the work per state the same for every
    # rule: each location gets exactly one update
    atom = _pga_atom(rng)
    outer = f"({atom} or not ({atom}))"
    body = (f"par\n      {clauses[0]}\n"
            f"      if {outer} then par {clauses[1]} {clauses[2]} endpar\n    endpar")
    return (f"machine {name}\n"
            f"  controlled {', '.join(PGA_LOCS)}\n"
            f"  rule Main =\n    {body}\n"
            f"  main Main\n")


# ---------------------------------------------------------------------------
# Refinement inputs: a nondeterministic stream and a round robin over three
# seed-chosen values. The stream has 4 states; at bound n it has 3^n runs.


def stream_values(rng: random.Random) -> List[int]:
    return rng.sample(range(1, 10), 3)


def choice_stream(values: List[int]) -> str:
    shown = ", ".join(str(v) for v in values)
    return ("machine ChoiceStream\n"
            "  controlled out\n"
            f"  rule Main = choose x in {{{shown}}} do out := x\n"
            "  main Main\n")


def round_robin(values: List[int]) -> str:
    table = " ".join(f"val({k}) := {v}" for k, v in enumerate(values))
    return ("machine RoundRobin\n"
            "  static val/1\n"
            "  controlled out, counter\n"
            "  rule Main =\n"
            "    par\n"
            "      out := val(counter)\n"
            "      counter := (counter + 1) mod 3\n"
            "    endpar\n"
            f"  init {{ counter := 0 {table} }}\n"
            "  main Main\n")


def manifest(steps: List[Tuple[str, str, str, Tuple[int, int, int]]]) -> str:
    """Chain manifest text from (name, abstract path, refined path, bounds)."""
    out = []
    for name, abstract, refined, bounds in steps:
        out += [f"step {name}", f"abstract {abstract}", f"refined {refined}",
                "observe out : out ~ out", "bounds " + " ".join(map(str, bounds)), ""]
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Machines with answers worked out by hand.


def recursive_machine(depth: int, start: int) -> str:
    """Each step calls Down(depth, total); the innermost call writes
    total + depth + (depth-1) + ... + 1, so after s steps
    total = start + s * depth * (depth + 1) / 2."""
    return ("machine Recursion\n"
            "  controlled total\n"
            "  rule Down(k, acc) = if k > 0 then Down(k - 1, acc + k) else total := acc\n"
            f"  rule Main = Down({depth}, total)\n"
            f"  init {{ total := {start} }}\n"
            "  main Main\n")


def worker_machine(names: List[str]) -> str:
    """Interleaved workers: the agent that moved last is not schedulable,
    and each move adds a chosen 1 or 2 to `total` and 1 to its own count."""
    agents = "\n".join(f"  agent {a} runs Work" for a in names)
    counts = " ".join(f"count('{a}) := 0" for a in names)
    return ("machine Workers\n"
            "  controlled count/1, total, last\n"
            "  rule Work =\n"
            "    if not (last = self) then\n"
            "      choose d in {1, 2} do\n"
            "        par\n"
            "          count(self) := count(self) + 1\n"
            "          total := total + d\n"
            "          last := self\n"
            "        endpar\n"
            f"  init {{ total := 0 {counts} }}\n"
            "  main Work\n"
            f"{agents}\n")


def write_all(files: Dict[str, str], directory) -> None:
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
