"""Command-line entry point.

Exit status contract: 0 on success or a passing check, 1 on a semantic
failure (failed assertion, refinement failure, inconsistent update set,
violated safety assertion), 2 on usage, parse, or resolution errors.
Human-readable output goes to stdout, diagnostics to stderr, and
machine-readable artifacts are only written when asked for explicitly.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Optional

from .errors import (
    AsmError,
    EvalError,
    ManifestError,
    NotPGA,
    ParseError,
    ResolveError,
    SourceEncodingError,
)
from .interp import (Inconsistent, Interleaving, Progressed, Resolver, Stalled, Synchronous,
                     export_trace_jsonl, initial_state, ma_outcomes, read_resolver_free,
                     trace_line)
from .multiagent import explore
from .normalform import equivalence_check, normalize
from .parser import parse_machine, pp_rule_expr, pretty_print, read_source
from .refine import BudgetExhausted, Fail, Pass, check_chain
from .scenario import run_scenario, run_suite, skeleton
from .state import FunctionKind, Location, state_digest
from .values import BoolV, IntV, UNDEF, show_value, value_key

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2


def _non_negative(text: str) -> int:
    """argparse type for step counts and bounds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


class UsageError(AsmError):
    """A command line the machine it names cannot serve; exits 2."""


def _seed(given: Optional[int]) -> int:
    """`--seed` if given, else $ASMWEAVE_SEED, read at each call, else 0."""
    if given is not None:
        return given
    text = os.environ.get("ASMWEAVE_SEED") or "0"
    try:
        return int(text)
    except ValueError:
        raise UsageError(
            f"ASMWEAVE_SEED, the --seed default: invalid int value: {text!r}") from None


def _load_machine(path: str):
    return parse_machine(read_source(path))


def _rule(machine, name: Optional[str]) -> str:
    """The rule `--rule` names, else main: one declared without parameters."""
    name = name or machine.main
    decl = machine.declarations.get(name)
    if decl is None:
        raise UsageError(f"rule {name!r} is not declared")
    if decl.formals:
        raise UsageError(f"rule {name!r} has parameters; --rule needs a rule without any")
    return name


def _print_state(state) -> None:
    lines = []
    for loc, val in state.content.items():
        decl = state.sig.get(loc.fname)
        if decl is not None and decl.auto:
            continue
        lines.append(f"{loc.show()} = {show_value(val)}")
    for line in sorted(lines):
        print(line)


@contextlib.contextmanager
def _trace_file(path: str):
    """A file to write JSON lines into as they come: an anonymous temporary
    file, copied to `path` only when the block ends without an error, so an
    error leaves `path` as it was. A trace without steps leaves the file
    empty, and stderr says so."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as lines:
        yield lines
        empty = lines.tell() == 0
        lines.seek(0)
        with open(path, "w", encoding="utf-8") as out:
            shutil.copyfileobj(lines, out)
    if empty:
        print(f"note: the trace has no steps; {path} is empty", file=sys.stderr)


def _write_trace(path: str, trace) -> None:
    with _trace_file(path) as out:
        out.write(export_trace_jsonl(trace))


def cmd_run(args) -> int:
    """Consume the run's outcomes as they come, keeping the current state
    and the last outcome; `--trace` lines are written as the steps happen."""
    resolver = Resolver.seeded(_seed(args.seed))
    machine = _load_machine(args.machine)
    # interleaving steps a lone anonymous agent as synchronous does
    scheduler = Interleaving() if args.agents == "interleave" else Synchronous()
    agents = None
    if not machine.agents or args.agents == "single":
        agents = (("", _rule(machine, args.rule)),)
    elif args.rule is not None:
        # each agent loops its own rule; only the single scheduler runs one
        raise UsageError("--rule needs --agents single on a machine with agents")
    state = initial_state(machine)
    res = None
    try:
        with _trace_file(args.trace) if args.trace else contextlib.nullcontext() as trace:
            for k, res in enumerate(ma_outcomes(machine, scheduler, args.steps, resolver,
                                                state, agents)):
                if trace is not None and not isinstance(res, Stalled):
                    trace.write(trace_line(k, res, state_digest(state)))
                if isinstance(res, Progressed):
                    state = res.next_state
    except EvalError as e:
        if not (machine.agents and args.agents == "single"):
            raise
        # an agent's rule that reads `self` finds it undef here
        print(f"error: {e}", file=sys.stderr)
        print("note: --agents single runs the rule as the anonymous agent, which has no self",
              file=sys.stderr)
        return EXIT_SEMANTIC
    _print_state(state)
    if isinstance(res, Inconsistent):
        print("run ended inconsistent:", file=sys.stderr)
        for loc, vals in res.clashes:
            vals_text = ", ".join(show_value(v) for v in sorted(vals, key=value_key))
            print(f"  {loc.show()} <- {{{vals_text}}}", file=sys.stderr)
        return EXIT_SEMANTIC
    return EXIT_OK


def cmd_normalize(args) -> int:
    machine = _load_machine(args.machine)
    rule = _rule(machine, args.rule)
    try:
        nf = normalize(machine, rule)
    except NotPGA as e:
        print(f"rule {rule} is not a parallel guarded assignment; offending constructs:")
        for pos, name in e.offending:
            where = f"{pos[0]}:{pos[1]}" if pos else "?"
            print(f"  {where}: {name}")
        return EXIT_SEMANTIC
    print(f"rule {rule} is a parallel guarded assignment; normal form:")
    print(pp_rule_expr(nf.to_rule(), 1))
    space = _machine_space(machine)
    result = equivalence_check(machine, rule, nf, space)
    print(f"equivalence over {result.states_checked} states: "
          f"{'pass' if result.passed else 'FAIL'}")
    if not result.passed:
        print(f"  witness: {result.witness!r}", file=sys.stderr)
        return EXIT_SEMANTIC
    return EXIT_OK


def _machine_space(machine):
    """Small default space: every 0-ary dynamic location over booleans and 0..2."""
    values = [BoolV(True), BoolV(False), IntV(0), IntV(1), IntV(2), UNDEF]
    space = []
    for decl in machine.sig.entries:
        if decl.auto or decl.arity != 0:
            continue
        if decl.kind in (FunctionKind.CONTROLLED, FunctionKind.MONITORED):
            space.append((Location(decl.name), list(values)))
    return space


def _budget_cause(stats) -> str:
    """Which bound left a refinement verdict undecided."""
    if stats.abstract_truncated and stats.refined_truncated:
        return "branch budget exhausted on both sides"
    if stats.abstract_truncated or stats.refined_truncated:
        side = "abstract" if stats.abstract_truncated else "refined"
        return f"branch budget exhausted on the {side} side"
    return "abstract step bound cut a run that could still match"


def cmd_check_refine(args) -> int:
    results = check_chain(args.manifest)
    status = EXIT_OK
    for name, verdict in results:
        if isinstance(verdict, Pass):
            print(f"PASS  {name}  (abstract runs: {verdict.stats.abstract_runs}, "
                  f"refined runs: {verdict.stats.refined_runs})")
        elif isinstance(verdict, BudgetExhausted):
            print(f"BUDGET  {name}  ({_budget_cause(verdict.stats)}; verdict undecided)")
            status = EXIT_SEMANTIC
        else:
            assert isinstance(verdict, Fail)
            print(f"FAIL  {name}")
            print(f"  refined observations: {verdict.observed.pretty()}")
            for near in verdict.nearest_abstract:
                print(f"  nearest abstract:    {near.pretty()}")
            if args.trace:
                _write_trace(args.trace, verdict.counterexample)
            status = EXIT_SEMANTIC
    if not results:
        print("manifest contains no steps; nothing to check")
    return status


def cmd_scenario(args) -> int:
    path = Path(args.path)
    if path.is_dir():
        suite = run_suite(path)
        for w in suite.warnings:
            print(f"warning: {w}", file=sys.stderr)
        for report in suite.reports:
            _print_scenario_report(report)
        if args.json:
            print(json.dumps(suite.summary()))
        return suite.exit_status
    report = run_scenario(path)
    _print_scenario_report(report)
    if args.json:
        print(json.dumps({"scenario": report.name, "passed": report.passed,
                          "failures": [r.text for r in report.results if not r.passed]}))
    return EXIT_OK if report.passed else EXIT_SEMANTIC


def _print_scenario_report(report) -> None:
    mark = "PASS" if report.passed else "FAIL"
    print(f"{mark}  scenario {report.name}")
    if report.error:
        print(f"  error: {report.error}", file=sys.stderr)
    for w in report.warnings:
        print(f"  warning: {w}", file=sys.stderr)
    for r in report.results:
        if r.passed:
            continue
        where = f"after step {r.index}" if r.kind == "step" else "final state"
        print(f"  failed {where}: {r.text}")
        if r.detail:
            print(f"    {r.detail}")


def cmd_explore(args) -> int:
    machine = _load_machine(args.machine)
    assertion = None
    if args.assertion:
        assertion = read_resolver_free(args.assertion, machine.sig, "--assert")
    report = explore(machine, args.depth, args.budget, assertion)
    print(f"distinct states: {report.states_visited}"
          + (" (complete)" if report.complete else ""))
    if report.inconsistent_branches:
        print(f"inconsistent branches: {report.inconsistent_branches}")
    if report.counterexample is not None:
        print(f"assertion violated after {len(report.counterexample.steps)} step(s):")
        _print_state(report.violating_state)
        if args.trace:
            _write_trace(args.trace, report.counterexample)
        return EXIT_SEMANTIC
    if assertion is not None:
        print("assertion holds on every visited state")
    return EXIT_OK


def cmd_fmt(args) -> int:
    text = pretty_print(_load_machine(args.machine))
    if args.stdout:
        sys.stdout.write(text)
    else:
        Path(args.machine).write_text(text, encoding="utf-8")
    return EXIT_OK


def cmd_skeleton(args) -> int:
    sys.stdout.write(skeleton(args.machine))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; it reads no environment."""
    p = argparse.ArgumentParser(
        prog="asmweave",
        description="Run, normalize, validate, and refinement-check abstract "
                    "state machines.")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a machine and print its final state")
    run_p.add_argument("machine")
    run_p.add_argument("--steps", type=_non_negative, default=10)
    run_p.add_argument("--seed", type=int, default=None,
                       help="resolver seed (default: $ASMWEAVE_SEED, else 0)")
    run_p.add_argument("--rule", default=None, help="rule to loop (default: main)")
    run_p.add_argument("--agents", choices=["sync", "interleave", "single"],
                       default="sync", help="scheduler for multi-agent machines")
    run_p.add_argument("--trace", default=None, help="write a JSON-lines trace here")
    run_p.set_defaults(fn=cmd_run)

    norm_p = sub.add_parser("normalize",
                            help="classify a rule and print its guarded-assignment form")
    norm_p.add_argument("machine")
    norm_p.add_argument("--rule", default=None)
    norm_p.set_defaults(fn=cmd_normalize)

    ref_p = sub.add_parser("check-refine", help="check a refinement chain manifest")
    ref_p.add_argument("manifest")
    ref_p.add_argument("--trace", default=None,
                       help="write the first counterexample trace here")
    ref_p.set_defaults(fn=cmd_check_refine)

    sc_p = sub.add_parser("scenario", help="run a scenario file or suite directory")
    sc_p.add_argument("path")
    sc_p.add_argument("--json", action="store_true",
                      help="print a machine-readable summary line")
    sc_p.set_defaults(fn=cmd_scenario)

    ex_p = sub.add_parser("explore",
                          help="breadth-first exploration of all interleavings")
    ex_p.add_argument("machine")
    ex_p.add_argument("--depth", type=_non_negative, default=10)
    ex_p.add_argument("--budget", type=_non_negative, default=10_000)
    ex_p.add_argument("--assert", dest="assertion", default=None,
                      help="safety condition to check in every state")
    ex_p.add_argument("--trace", default=None,
                      help="write the counterexample trace here")
    ex_p.set_defaults(fn=cmd_explore)

    fmt_p = sub.add_parser("fmt", help="rewrite a machine file in canonical form")
    fmt_p.add_argument("machine")
    fmt_p.add_argument("--stdout", action="store_true",
                       help="print instead of rewriting the file")
    fmt_p.set_defaults(fn=cmd_fmt)

    sk_p = sub.add_parser("skeleton", help="emit a scenario template for a machine")
    sk_p.add_argument("machine")
    sk_p.set_defaults(fn=cmd_skeleton)
    return p


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ResolveError, SourceEncodingError, ManifestError, UsageError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except AsmError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
