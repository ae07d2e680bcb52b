"""Scenario runner: scripted environment inputs with step-indexed assertions.

A scenario file is line-oriented and readable without knowing the machine
language internals:

    scenario swap_basic
    machine ../swap.asm
    seed 1
    steps 2
    init a := 5
    step 1: in := 3; choose Main.choose1 = 2; schedule m1
    assert 1: a = 2 and b = 1
    final: a = 1

`step k:` entries feed monitored bindings, choice-script entries, and the
scheduled agent for the k-th step (1-based), each at most once. A binding
`loc := value` becomes a `monitored` entry of the step's script, the form
an exported trace records it in. A machine without agents runs as the
anonymous agent and takes no `schedule`; once any step names an agent,
every step up to the run length names one of the machine's agents.
`assert k:` conditions are evaluated in the state reached after step k
(`assert 0:` checks the initial state); `final:` conditions are evaluated
in the last state. Every assertion is evaluated even after failures, and
the report carries the values that witnessed each failure.

A scenario is read against its machine once, before it runs: an error in
its input (the machine, an override, a step, a condition) is a
ManifestError that names its entry, and only an error of the run itself
fails the report.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .errors import AsmError, ManifestError
from .interp import (
    ResEntry,
    Resolver,
    ScriptedOrder,
    Synchronous,
    Trace,
    eval_term,
    initial_state,
    ma_run,
    read_location,
    read_override,
    read_resolver_free,
)
from .parser import (
    App,
    MachineDef,
    Term,
    directive_lines,
    file_key,
    located,
    parse_machine,
    pp_term,
    read_input,
    read_source,
)
from .state import FunctionKind, State
from .values import BoolV, show_value


@dataclass
class Scenario:
    name: str
    machine_path: str
    seed: int = 0
    max_steps: Optional[int] = None
    init_entries: List[str] = field(default_factory=list)
    step_cmds: Dict[int, List[str]] = field(default_factory=dict)
    assertions: List[Tuple[int, str]] = field(default_factory=list)
    finals: List[str] = field(default_factory=list)


@dataclass
class AssertionResult:
    kind: str  # step | final
    index: Optional[int]
    text: str
    passed: bool
    detail: str = ""


@dataclass
class ScenarioReport:
    name: str
    results: List[AssertionResult]
    warnings: List[str]
    error: Optional[str] = None
    trace: Optional[Trace] = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.passed for r in self.results)


def _line_int(text: str, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ManifestError(f"line {lineno}: bad {what} {text!r}") from None


def parse_scenario(text: str) -> Scenario:
    name = None
    machine_path = None
    sc = Scenario("", "")
    for lineno, head, rest in directive_lines(text):
        if head == "scenario":
            name = rest
        elif head == "machine":
            machine_path = rest
        elif head == "seed":
            sc.seed = _line_int(rest, lineno, "seed")
        elif head == "steps":
            sc.max_steps = _line_int(rest, lineno, "step count")
            if sc.max_steps < 0:
                raise ManifestError(f"line {lineno}: step count must be non-negative")
        elif head == "init":
            if ":=" not in rest:
                raise ManifestError(f"line {lineno}: init needs '<loc> := <value>'")
            sc.init_entries.append(rest)
        elif head == "step":
            idx_text, colon, cmds = rest.partition(":")
            if not colon:
                raise ManifestError(f"line {lineno}: expected 'step <k>: <commands>'")
            k = _line_int(idx_text.strip(), lineno, "step index")
            if k < 1:
                raise ManifestError(f"line {lineno}: step indices are 1-based")
            sc.step_cmds.setdefault(k, []).extend(
                c.strip() for c in cmds.split(";") if c.strip())
        elif head == "assert":
            idx_text, colon, cond = rest.partition(":")
            if not colon:
                raise ManifestError(f"line {lineno}: expected 'assert <k>: <condition>'")
            k = _line_int(idx_text.strip(), lineno, "assert index")
            if k < 0:
                raise ManifestError(f"line {lineno}: assert indices are non-negative")
            sc.assertions.append((k, cond.strip()))
        elif head in ("final", "final:"):
            if head == "final":
                if not rest.startswith(":"):
                    raise ManifestError(f"line {lineno}: expected 'final: <condition>'")
                rest = rest[1:].strip()
            sc.finals.append(rest)
        else:
            raise ManifestError(f"line {lineno}: unknown directive {head!r}")
    if name is None:
        raise ManifestError("scenario file lacks a 'scenario <name>' line")
    if machine_path is None:
        raise ManifestError(f"scenario {name!r} lacks a 'machine <path>' line")
    sc.name = name
    sc.machine_path = machine_path
    return sc


def _read_command(cmd: str, machine: MachineDef, where: str) -> ResEntry:
    """The script entry of one step command other than `schedule`."""
    kind, _, rest = cmd.partition(" ")
    if kind in ("choose", "abstract"):
        label, eq, val_text = rest.partition("=")
        if not eq:
            what = "<label>" if kind == "choose" else "<f(args)>"
            raise ManifestError(f"{where}: expected '{kind} {what} = <value>'")
        label = label.strip()
        if kind == "abstract":
            label = read_location(label, machine.sig).show()
    elif ":=" in cmd:
        loc_text, val_text = cmd.split(":=", 1)
        kind, label = "monitored", read_location(loc_text, machine.sig).show()
    else:
        raise ManifestError(f"{where}: cannot parse step command")
    term = read_resolver_free(val_text.strip(), machine.sig, where)
    return ResEntry(kind, label, "", eval_term(term, State(machine.sig)))


def _read_steps(sc: Scenario, machine: MachineDef,
                n_steps: int) -> Tuple[List[List[ResEntry]], Tuple[str, ...]]:
    """The script of each step, and the agent scheduled at each step: none,
    or one of the machine's agents at every step up to `n_steps`."""
    entries: List[List[ResEntry]] = [[] for _ in range(n_steps)]
    schedule: Dict[int, str] = {}
    for k, cmds in sc.step_cmds.items():
        if k > n_steps:
            raise ManifestError(f"step {k} is beyond the run length {n_steps}")
        for cmd in cmds:
            where = f"step {k}: {cmd!r}"
            if cmd.startswith("schedule "):
                aid = cmd[len("schedule "):].strip()
                # a plain machine is the anonymous agent, which no line can name
                if aid not in dict(machine.agents):
                    raise ManifestError(
                        f"{where}: machine {machine.name} has no agent {aid!r}")
                if k in schedule:
                    raise ManifestError(f"step {k} schedules two agents")
                schedule[k] = aid
                continue
            e = located(where, _read_command, cmd, machine, where)
            # a draw or an injection reads only the last entry for its label
            if any((d.kind, d.label) == (e.kind, e.label) for d in entries[k - 1]):
                shown = e.label if e.kind == "monitored" else f"{e.kind} {e.label}"
                raise ManifestError(f"step {k} sets {shown} twice")
            entries[k - 1].append(e)
    order = tuple(schedule.get(k) for k in range(1, n_steps + 1)) if schedule else ()
    if None in order:
        raise ManifestError(f"step {order.index(None) + 1} lacks a schedule entry")
    return entries, order


def _condition(cond: str, index: Optional[int],
               machine: MachineDef) -> Tuple[Optional[int], str, Term]:
    """An `assert index:` condition, or a `final:` one when `index` is None."""
    where = f"final {cond!r}" if index is None else f"assertion {cond!r} at step {index}"
    return index, cond, located(where, read_resolver_free, cond, machine.sig, where)


def _witnesses(term: Term, state: State, machine: MachineDef) -> str:
    """Values of the maximal signature applications inside an assertion."""
    found: List[str] = []
    seen = set()

    def walk(t: Term) -> None:
        if isinstance(t, App):
            if machine.sig.get(t.fname) is not None:
                try:
                    shown = f"{pp_term(t)} = {show_value(eval_term(t, state))}"
                except AsmError:
                    shown = f"{pp_term(t)} = <error>"
                if shown not in seen:
                    seen.add(shown)
                    found.append(shown)
                return
            for a in t.args:
                walk(a)

    walk(term)
    return ", ".join(found)


def run_scenario(path: Union[str, Path],
                 machines: Optional[Dict[object, MachineDef]] = None) -> ScenarioReport:
    """Read the scenario file at `path` against its machine, whose path is
    relative to the file's directory, then run it and report every
    assertion outcome. `machines` holds the machines parsed so far, by
    `parser.file_key`, and gains this one: a run keeps nothing on a machine
    that another run could see."""
    path = Path(path)
    sc = parse_scenario(read_source(path))
    machine_file = path.parent / sc.machine_path
    machines = {} if machines is None else machines
    key = file_key(machine_file)
    if key not in machines:
        machines[key] = located(lambda: f"cannot load machine {machine_file.resolve()}",
                                parse_machine,
                                read_input(machine_file, "cannot load machine", resolve=True))
    machine = machines[key]
    overrides = [located(f"init {text!r}", read_override, text, machine, f"init {text!r}")
                 for text in sc.init_entries]
    n_steps = sc.max_steps
    if n_steps is None:
        n_steps = max([*(k for k, _ in sc.assertions), *sc.step_cmds, 0])
    entries, order = _read_steps(sc, machine, n_steps)
    conditions = ([_condition(cond, k, machine) for k, cond in sc.assertions]
                  + [_condition(cond, None, machine) for cond in sc.finals])

    try:
        trace = ma_run(machine, ScriptedOrder(order) if order else Synchronous(), n_steps,
                       Resolver.scripted(entries, fallback_seed=sc.seed),
                       initial_state(machine, overrides))
    except AsmError as e:
        return ScenarioReport(sc.name, [], [], error=str(e))
    warnings = [] if conditions else ["scenario declares no assertions; it passes vacuously"]
    states = trace.states
    return ScenarioReport(sc.name, [_evaluate(*c, states, trace.outcome, machine)
                                    for c in conditions], warnings, trace=trace)


def _evaluate(index: Optional[int], cond: str, term: Term, states: List[State],
              outcome: str, machine: MachineDef) -> AssertionResult:
    """A condition checked on `states`, the states of a run that ended `outcome`."""
    kind = "final" if index is None else "step"
    if kind == "step" and index >= len(states):
        return AssertionResult(kind, index, cond, False,
                               f"run ended after {len(states) - 1} step(s) ({outcome})")
    state = states[-1 if index is None else index]
    try:
        value = eval_term(term, state)
    except AsmError as e:
        return AssertionResult(kind, index, cond, False, f"evaluation error: {e}")
    if not isinstance(value, BoolV):
        return AssertionResult(kind, index, cond, False,
                               f"condition evaluated to {show_value(value)}")
    if value.b:
        return AssertionResult(kind, index, cond, True)
    return AssertionResult(kind, index, cond, False,
                           f"witness: {_witnesses(term, state, machine)}")


# ---------------------------------------------------------------------------
# Suites


@dataclass
class SuiteReport:
    reports: List[ScenarioReport]
    warnings: List[str]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def exit_status(self) -> int:
        return 0 if self.passed else 1

    def summary(self) -> dict:
        return {
            "scenarios": len(self.reports),
            "failed": [r.name for r in self.reports if not r.passed],
            "warnings": self.warnings + [w for r in self.reports for w in r.warnings],
            "passed": self.passed,
        }


def run_suite(directory: Union[str, Path]) -> SuiteReport:
    """Run every *.scn file in a directory; any failure makes the suite fail.
    Each machine file is parsed once for the suite."""
    d = Path(directory)
    files = sorted(d.glob("*.scn"))
    warnings = []
    if not files:
        warnings.append(f"no scenario files (*.scn) found in {d}")
    reports = []
    machines: Dict[object, MachineDef] = {}
    for f in files:
        try:
            reports.append(run_scenario(f, machines))
        except (OSError, AsmError) as e:
            reports.append(ScenarioReport(f.name, [], [], error=str(e)))
    return SuiteReport(reports, warnings)


# ---------------------------------------------------------------------------
# Authoring aid


def skeleton(machine_path: Union[str, Path]) -> str:
    """Emit a scenario template for a machine: every monitored and abstract
    function that may need bindings, plus an empty assertion block."""
    path = Path(machine_path)
    machine = parse_machine(read_source(path))
    lines = [
        f"// scenario template for machine {machine.name}",
        f"scenario {machine.name.lower()}_example",
        f"machine {path.name}",
        "seed 0",
        "steps 3",
        "",
    ]
    monitored = [d for d in machine.sig.of_kind(FunctionKind.MONITORED) if not d.auto]
    if monitored:
        lines.append("// monitored inputs to bind per step:")
        for d in monitored:
            example = f"{d.name}({', '.join(['0'] * d.arity)})" if d.arity else d.name
            lines.append(f"// step 1: {example} := undef")
        lines.append("")
    abstracts = machine.sig.of_kind(FunctionKind.ABSTRACT)
    if abstracts:
        lines.append("// abstract functions drawn by the resolver:")
        for d in abstracts:
            if d.codomain is None and d.arity:
                lines.append(f"// {d.name}/{d.arity} cannot be drawn without a codomain hint")
                continue
            hint = show_value(d.codomain) if d.codomain else "{false, true}"
            example = f"{d.name}({', '.join(['0'] * d.arity)})" if d.arity else d.name
            lines.append(f"// step 1: abstract {example} = ...   // from {hint}")
        lines.append("")
    if machine.agents:
        lines.append("// agents (scripted order):")
        for aid, rname in machine.agents:
            lines.append(f"// step 1: schedule {aid}   // runs {rname}")
        lines.append("")
    lines += ["// assertions:", "// assert 1: <condition on the state after step 1>",
              "// final: <condition on the last state>"]
    return "\n".join(lines) + "\n"
