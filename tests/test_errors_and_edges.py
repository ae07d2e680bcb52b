"""Edge behaviour around error reporting, positions, and serialization."""
import json

import pytest

from conftest import MODELS, load_model
from asmweave.errors import (
    EvalError,
    GuardNotBoolean,
    InconsistentUpdateSet,
    ParseError,
    ScriptViolation,
)
from asmweave.interp import (
    Progressed,
    ResEntry,
    Resolver,
    Synchronous,
    Trace,
    export_trace_jsonl,
    initial_state,
    run,
    step,
    update_set,
)
from asmweave.multiagent import ma_run
from asmweave.parser import App, Lit, parse_machine, parse_term
from asmweave.state import Location, UpdateSet, lookup
from asmweave.values import FALSE, TRUE, UNDEF, IntV, SymV, mkset


def test_eval_errors_carry_positions():
    src = """machine M
  controlled x, c
  rule R =
    if c then
      x := 1
  main R
"""
    m = parse_machine(src)
    with pytest.raises(GuardNotBoolean) as e:
        update_set(m.declarations["R"].body, initial_state(m), machine=m)
    assert e.value.pos == (4, 8)  # the guard term's own location


def test_parse_error_positions_are_precise():
    with pytest.raises(ParseError) as e:
        parse_machine("machine M\n  controlled x\n  rule R = x :=\n  main R")
    assert e.value.line == 4


def test_resolve_diagnostics_sorted_by_position():
    src = "machine M rule R = par a := 1 b := 2 c := 3 endpar main R"
    from asmweave.errors import ResolveError
    with pytest.raises(ResolveError) as e:
        parse_machine(src)
    positions = [(ln, co) for ln, co, _ in e.value.diagnostics]
    assert positions == sorted(positions)


def test_init_clash_is_reported():
    src = "machine M controlled x rule R = skip init { x := 1 x := 2 } main R"
    m = parse_machine(src)
    with pytest.raises(InconsistentUpdateSet):
        initial_state(m)


def test_override_with_undef_clears_a_location():
    m = load_model("swap.asm")
    cleared = initial_state(m, [(App("a", ()), Lit(UNDEF))])
    assert lookup(cleared, Location("a")) is UNDEF
    assert lookup(cleared, Location("b")) == IntV(2)


def test_override_target_must_be_declared_and_init_must_not_clash():
    with pytest.raises(EvalError, match="override target 'nope' is not declared"):
        initial_state(load_model("swap.asm"), [(App("nope", ()), Lit(IntV(1)))])
    # an override of the clashing location does not hide the clash
    m = parse_machine("machine M controlled x rule R = skip init { x := 1 x := 2 } main R")
    with pytest.raises(InconsistentUpdateSet):
        initial_state(m, [(App("x", ()), Lit(IntV(3)))])


def test_res_entry_json_round_trip():
    entries = (
        ResEntry("choose", "Main.choose1", "choose:Main.choose1|#0", IntV(2)),
        ResEntry("abstract", "flip", "abs:flip", FALSE),
        ResEntry("monitored", "inc", "mon:inc", mkset([SymV("a"), IntV(1)])),
        ResEntry("schedule", "sched", "sched", SymV("m1")),
    )
    state = initial_state(load_model("swap.asm"))
    line = export_trace_jsonl(Trace(state, [Progressed(state, UpdateSet.empty(), entries)],
                                    "budget"))
    assert tuple(map(ResEntry.from_json, json.loads(line)["resolutions"])) == entries


def test_trace_jsonl_resolutions_survive_reload():
    choice = load_model("choose_out.asm")
    trace = run(choice, 3, Resolver.seeded(3))
    reloaded = []
    for line in export_trace_jsonl(trace).splitlines():
        obj = json.loads(line)
        reloaded.append(tuple(ResEntry.from_json(r) for r in obj["resolutions"]))
    replay = run(choice, 3, Resolver.scripted(reloaded))
    assert replay.digests() == trace.digests()


def test_monitored_script_rejects_non_monitored_target():
    swap = load_model("swap.asm")
    script = [[ResEntry("monitored", "a", "mon:a", IntV(9))]]
    with pytest.raises(ScriptViolation):
        run(swap, 1, Resolver.scripted(script, fallback_seed=0))


def test_synchronous_run_is_deterministic():
    ring = load_model("ring3.asm")
    # synchronous ring runs may clash; whatever happens must be reproducible
    a = ma_run(ring, Synchronous(), 4, Resolver.seeded(2))
    b = ma_run(ring, Synchronous(), 4, Resolver.seeded(2))
    assert a.outcome == b.outcome
    assert a.digests() == b.digests()


def test_suite_reports_unreadable_files(tmp_path):
    good = tmp_path / "ok.scn"
    good.write_text(
        f"scenario ok\nmachine {MODELS / 'swap.asm'}\nsteps 1\nassert 1: a = 2\n",
        encoding="utf-8")
    bad = tmp_path / "broken.scn"
    bad.write_text("not a scenario at all\n", encoding="utf-8")
    from asmweave.scenario import run_suite
    suite = run_suite(tmp_path)
    assert suite.exit_status == 1
    by_name = {r.name: r for r in suite.reports}
    assert by_name["ok"].passed
    assert not by_name["broken.scn"].passed


def test_equivalence_check_with_abstract_functions():
    m = parse_machine("""
machine A
  abstract flip
  controlled x
  rule Direct = if flip then x := 1 else x := 2
  rule Expanded = par (if flip then x := 1) (if not flip then x := 2) endpar
  rule Wrong = x := 1
  main Direct
""")
    from asmweave.normalform import equivalence_check
    space = [(Location("x"), [IntV(0)])]
    assert equivalence_check(m, "Direct", "Expanded", space).passed
    assert not equivalence_check(m, "Direct", "Wrong", space).passed


def test_step_rejects_parameterized_rule():
    m = parse_machine("""
machine M
  controlled x
  rule P(a) = x := a
  rule Main = P(1)
  main Main
""")
    with pytest.raises(EvalError):
        step(initial_state(m), m, "P", Resolver.seeded(0))
