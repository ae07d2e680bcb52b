"""`asmweave run` consumes the stream of step outcomes (`interp.ma_outcomes`)
without keeping a trace: its output, its `--trace` file and its exit status
equal what the kept `Trace` of the same run gives, and its memory does not
grow with the number of steps."""
import tracemalloc

import pytest

from conftest import MODELS, load_model
from asmweave import cli
from asmweave.errors import AsmError
from asmweave.interp import (Inconsistent, Interleaving, Progressed, Resolver, Stalled,
                             Synchronous, export_trace_jsonl, initial_state, ma_outcomes,
                             ma_run, run)
from asmweave.parser import parse_machine
from asmweave.values import show_value, value_key

CLASH = ("machine Clash controlled x rule R = par x := x + 1 if x = 3 then x := 0 endpar "
         "init { x := 0 } main R")
# `choose v in x` fails once x is 3, in the fourth step
FAILS = ("machine Fails controlled x, y rule R = par x := x + 1 "
         "if x = 3 then choose v in x do y := v endpar init { x := 0 } main R")


# what `run --agents single` adds after an error on a machine with agents
SINGLE_NOTE = "note: --agents single runs the rule as the anonymous agent, which has no self\n"


def _runs():
    """(model file, seed, --agents mode) of every bundled model at seeds 0,
    1 and 3, in every mode: a machine without agents runs as the anonymous
    agent in each."""
    for path in sorted(MODELS.glob("*.asm")):
        for seed in (0, 1, 3):
            for mode in ("sync", "interleave", "single"):
                yield path, seed, mode


def _kept_trace(machine, steps: int, seed: int, mode: str):
    """The `Trace` of the run `asmweave run --agents mode` makes."""
    if machine.agents and mode != "single":
        scheduler = Synchronous() if mode == "sync" else Interleaving()
        return ma_run(machine, scheduler, steps, Resolver.seeded(seed))
    return run(machine, steps, Resolver.seeded(seed))


def _final_state_lines(capsys, trace) -> str:
    capsys.readouterr()
    cli._print_state(trace.final_state)
    return capsys.readouterr().out


@pytest.mark.parametrize("path, seed, mode", list(_runs()),
                         ids=lambda v: getattr(v, "name", str(v)))
def test_a_streamed_trace_file_is_the_export_of_the_kept_trace(tmp_path, capsys, path, seed,
                                                                mode):
    out = tmp_path / "t.jsonl"
    status = cli.main(["run", str(path), "--steps", "25", "--seed", str(seed),
                       "--agents", mode, "--trace", str(out)])
    printed = capsys.readouterr()
    machine = parse_machine(path.read_text(encoding="utf-8"))
    try:
        trace = _kept_trace(machine, 25, seed, mode)
    except AsmError as e:  # a ring's rule run as the anonymous agent reads an unbound `self`
        assert machine.agents and mode == "single"
        assert (status, printed.out, printed.err) == (1, "", f"error: {e}\n{SINGLE_NOTE}")
        assert not out.exists()
        return
    assert out.read_bytes() == export_trace_jsonl(trace).encode("utf-8")
    assert printed.out == _final_state_lines(capsys, trace)
    assert (status, printed.err) == _ending(trace, out)


def _ending(trace, out) -> tuple:
    """The exit status and stderr of a `run` that kept `trace`, traced to `out`."""
    note = "" if trace.steps else f"note: the trace has no steps; {out} is empty\n"
    if trace.outcome != "inconsistent":
        return 0, note
    return 1, "run ended inconsistent:\n" + "".join(
        f"  {loc.show()} <- {{{', '.join(show_value(v) for v in sorted(vals, key=value_key))}}}\n"
        for loc, vals in trace.clashes)


def test_a_streamed_run_that_clashes_exits_1_as_the_kept_trace_ends(tmp_path, capsys):
    machine_file, out = tmp_path / "clash.asm", tmp_path / "t.jsonl"
    machine_file.write_text(CLASH, encoding="utf-8")
    assert cli.main(["run", str(machine_file), "--trace", str(out)]) == 1
    printed = capsys.readouterr()
    assert printed.err == "run ended inconsistent:\n  x <- {0, 4}\n"
    assert printed.out == "x = 3\n"
    trace = run(parse_machine(CLASH), 10, Resolver.seeded(0))
    assert trace.outcome == "inconsistent" and len(trace.steps) == 4
    assert out.read_text(encoding="utf-8") == export_trace_jsonl(trace)
    assert printed.out == _final_state_lines(capsys, trace)


def test_a_streamed_run_of_no_steps_writes_an_empty_file_and_a_note(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    out.write_text("old\n", encoding="utf-8")
    assert cli.main(["run", str(MODELS / "swap.asm"), "--steps", "0",
                     "--trace", str(out)]) == 0
    assert out.read_bytes() == b""
    assert capsys.readouterr() == ("a = 1\nb = 2\n",
                                   f"note: the trace has no steps; {out} is empty\n")


def test_a_run_that_fails_midway_leaves_its_trace_file_untouched(tmp_path, capsys):
    machine_file = tmp_path / "fails.asm"
    machine_file.write_text(FAILS, encoding="utf-8")
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_bytes(b"a trace written earlier\n")
    for out in (old, new):
        assert cli.main(["run", str(machine_file), "--trace", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: 1:69: choose range evaluated to 3\n")
    assert old.read_bytes() == b"a trace written earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fails.asm", "old.jsonl"]


def test_outcomes_stop_after_the_first_that_does_not_progress():
    for source, steps, last in ((CLASH, 10, Inconsistent), (CLASH, 2, Progressed)):
        machine = parse_machine(source)
        outcomes = list(ma_outcomes(machine, Synchronous(), steps, Resolver.seeded(0),
                                    initial_state(machine)))
        assert [type(o) for o in outcomes] == [Progressed] * (len(outcomes) - 1) + [last]
    machine = load_model("accumulator.asm")
    outcomes = list(ma_outcomes(machine, Synchronous(), 5, Resolver.seeded(0),
                                initial_state(machine)))
    assert [type(o) for o in outcomes] == [Stalled]
    assert run(machine, 5).outcome == "stalled"


@pytest.mark.parametrize("source, steps", [(CLASH, 10), (CLASH, 2), (CLASH, 0), (FAILS, 3)])
def test_the_final_state_is_the_last_state(source, steps):
    trace = run(parse_machine(source), steps, Resolver.seeded(0))
    assert trace.final_state is trace.states[-1]


def _peak_bytes(argv) -> int:
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    assert cli.main(argv) == 0
    return tracemalloc.get_traced_memory()[1] - base


@pytest.mark.parametrize("traced", [False, True])
def test_a_run_stays_in_flat_memory(tmp_path, capsys, traced):
    argv = ["run", str(MODELS / "round_robin.asm"), "--steps"]
    extra = ["--trace", str(tmp_path / "t.jsonl")] if traced else []
    cli.main([*argv, "2000", *extra])  # compiles the rules and fills the intern tables
    tracemalloc.start()
    try:
        short = _peak_bytes([*argv, "2000", *extra])
        long = _peak_bytes([*argv, "20000", *extra])
    finally:
        tracemalloc.stop()
    assert long <= 2 * short, (short, long)
    assert capsys.readouterr().out.endswith("counter = 2\nout = 2\n")
