import pytest

from conftest import MODELS, model_path
from asmweave.errors import ManifestError
from asmweave.interp import Resolver, ScriptedOrder, Synchronous, export_trace_jsonl, ma_run
from asmweave.parser import parse_machine, read_source
from asmweave.scenario import parse_scenario, run_scenario, run_suite, skeleton

GREEN = MODELS / "scenarios" / "green"
MUTANT = MODELS / "scenarios" / "mutant"


def test_swap_scenario_passes():
    report = run_scenario(GREEN / "swap_basic.scn")
    assert report.passed
    assert all(r.passed for r in report.results)


def test_wrong_expectation_fails_with_witness():
    report = run_scenario(MUTANT / "swap_wrong.scn")
    assert not report.passed
    (result,) = report.results
    assert result.index == 1 and not result.passed
    assert "a = 2" in result.detail  # the witnessing value


def test_ring_scenario_reaches_detection():
    report = run_scenario(GREEN / "ring_quiesce.scn")
    assert report.passed, [(r.text, r.detail) for r in report.results if not r.passed]


def test_report_is_complete_even_with_failures(tmp_path):
    scn = tmp_path / "multi.scn"
    scn.write_text(f"""
scenario multi
machine {model_path('swap.asm')}
steps 1
assert 1: a = 2
assert 1: a = 3
assert 1: b = 1
final: a = 9
""", encoding="utf-8")
    report = run_scenario(scn)
    assert len(report.results) == 4  # every declared assertion is reported
    assert [r.passed for r in report.results] == [True, False, True, False]


def test_vacuous_scenario_warns_but_passes(tmp_path):
    scn = tmp_path / "vacuous.scn"
    scn.write_text(f"scenario v\nmachine {model_path('swap.asm')}\nsteps 1\n",
                   encoding="utf-8")
    report = run_scenario(scn)
    assert report.passed
    assert any("vacuous" in w for w in report.warnings)


def test_assert_beyond_run_end_fails_cleanly(tmp_path):
    scn = tmp_path / "beyond.scn"
    scn.write_text(f"""
scenario beyond
machine {model_path('accumulator.asm')}
steps 4
assert 4: total = 0
""", encoding="utf-8")
    # without input the accumulator stalls after one no-update check
    report = run_scenario(scn)
    assert not report.passed
    assert "run ended" in report.results[0].detail


def test_determinism_same_seed_same_report(tmp_path):
    scn = tmp_path / "det.scn"
    scn.write_text(f"""
scenario det
machine {model_path('choose_out.asm')}
seed 9
steps 3
final: out = 1 or out = 2 or out = 3
""", encoding="utf-8")
    a, b = run_scenario(scn), run_scenario(scn)
    assert a.trace.digests() == b.trace.digests()
    assert [r.passed for r in a.results] == [r.passed for r in b.results]


def test_machine_error_recorded_as_failure(tmp_path):
    bad = tmp_path / "bad.asm"
    bad.write_text("machine B controlled x, c rule R = if c then x := 1 main R",
                   encoding="utf-8")
    scn = tmp_path / "err.scn"
    # guard c is undef: the run itself errors and the report says so
    scn.write_text(f"scenario err\nmachine bad.asm\nsteps 1\nassert 1: x = 1\n",
                   encoding="utf-8")
    report = run_scenario(scn)
    assert not report.passed
    assert report.error is not None


def test_suite_green_and_mutant_and_empty(tmp_path):
    assert run_suite(GREEN).exit_status == 0
    mutant = run_suite(MUTANT)
    assert mutant.exit_status == 1
    assert sorted(mutant.summary()["failed"]) == ["ring_mutant_unsafe", "swap_wrong"]
    empty = run_suite(tmp_path)
    assert empty.exit_status == 0
    assert empty.warnings


def test_ring_safety_scenario_pair():
    # identical schedules; the taint rule is what separates pass from fail
    assert run_scenario(GREEN / "ring_safety_probe.scn").passed
    report = run_scenario(MUTANT / "ring_mutant_unsafe.scn")
    assert not report.passed
    assert "detected = true" in report.results[-1].detail


def test_parse_scenario_rejects_bad_lines():
    with pytest.raises(ManifestError):
        parse_scenario("scenario x\nmachine m.asm\nstep one: a := 1\n")
    with pytest.raises(ManifestError):
        parse_scenario("machine m.asm\n")  # no name
    with pytest.raises(ManifestError):
        parse_scenario("scenario x\n")  # no machine


@pytest.mark.parametrize("line", ["finally : a = 1", "finalize: b = 2", "final a = 1"])
def test_only_final_heads_a_final_condition(line):
    with pytest.raises(ManifestError, match="line 3"):
        parse_scenario(f"scenario x\nmachine m.asm\n{line}\n")


def test_final_takes_a_colon_after_a_space():
    sc = parse_scenario("scenario x\nmachine m.asm\nfinal : a = 1\nfinal: b = 2\n")
    assert sc.finals == ["a = 1", "b = 2"]


def test_a_directive_ends_at_any_whitespace():
    sc = parse_scenario("scenario x\nmachine m.asm\nseed\t1\nsteps \t 2\n")
    assert (sc.seed, sc.max_steps) == (1, 2)


@pytest.mark.parametrize("line", ["seed abc", "steps x", "steps -1", "assert -1: a = 1"])
def test_bad_scenario_integer_names_its_line(line):
    with pytest.raises(ManifestError, match="line 3"):
        parse_scenario(f"scenario x\nmachine m.asm\n{line}\n")


def test_bad_file_in_suite_fails_alone(tmp_path):
    swap = model_path("swap.asm")
    (tmp_path / "a_bad.scn").write_text(f"scenario bad\nmachine {swap}\nseed abc\n",
                                        encoding="utf-8")
    (tmp_path / "a_binary.scn").write_bytes(b"\xff\xfescenario binary\n")
    (tmp_path / "binary.asm").write_bytes(b"\xff\xfemachine M\n")
    (tmp_path / "a_binary_machine.scn").write_text(
        "scenario binary_machine\nmachine binary.asm\nsteps 1\n", encoding="utf-8")
    # a plain machine is the anonymous agent, which a schedule line cannot name
    (tmp_path / "a_plain_schedule.scn").write_text(
        f"scenario plain_schedule\nmachine {swap}\nstep 1: schedule main\n",
        encoding="utf-8")
    (tmp_path / "b_good.scn").write_text(
        f"scenario good\nmachine {swap}\nsteps 1\nfinal: a = 2\n", encoding="utf-8")
    suite = run_suite(tmp_path)
    assert [(r.name, r.passed) for r in suite.reports] == [
        ("a_bad.scn", False), ("a_binary.scn", False), ("a_binary_machine.scn", False),
        ("a_plain_schedule.scn", False), ("good", True)]
    assert "line 3" in suite.reports[0].error
    assert "can't decode" in suite.reports[1].error
    assert "cannot load machine" in suite.reports[2].error
    assert "step 1: 'schedule main'" in suite.reports[3].error
    assert suite.exit_status == 1


def test_agents_without_schedule_run_synchronously(tmp_path):
    mfile = tmp_path / "pair.asm"
    mfile.write_text("""
machine Pair
  controlled x, y
  rule A = x := 1
  rule B = y := 2
  main A
  agent a1 runs A
  agent a2 runs B
""", encoding="utf-8")
    scn = tmp_path / "pair.scn"
    scn.write_text("""
scenario pair_sync
machine pair.asm
steps 1
assert 1: x = 1 and y = 2
""", encoding="utf-8")
    assert run_scenario(scn).passed


def test_skeleton_lists_inputs():
    text = skeleton(model_path("swap.asm"))
    assert "scenario swap_example" in text
    assert "monitored" not in text  # swap has no inputs to bind
    text2 = skeleton(model_path("accumulator.asm"))
    assert "inc := undef" in text2
    text3 = skeleton(model_path("coin.asm"))
    assert "abstract flip" in text3


def test_skeleton_monitored_with_arity(tmp_path):
    mfile = tmp_path / "m.asm"
    mfile.write_text(
        "machine M monitored inp/1 controlled x rule R = x := inp(0) main R",
        encoding="utf-8")
    text = skeleton(mfile)
    assert "inp(0) := undef" in text


def test_skeleton_offers_no_draw_for_an_unhinted_abstract_function(tmp_path):
    mfile = tmp_path / "m.asm"
    mfile.write_text(
        "machine M abstract g/1, c controlled x rule R = x := g(1) main R",
        encoding="utf-8")
    text = skeleton(mfile)
    assert "abstract c = ...   // from {false, true}" in text
    assert "abstract g(0)" not in text
    assert "g/1 cannot be drawn without a codomain hint" in text


def test_comment_marker_inside_a_string_is_kept():
    sc = parse_scenario('scenario x\nmachine m.asm\nassert 1: s = "a//b" // note\n'
                        'step 1: in := "c//d"\n')
    assert sc.assertions == [(1, 's = "a//b"')]
    assert sc.step_cmds == {1: ['in := "c//d"']}


def test_skeleton_unparseable_file_raises(tmp_path):
    bad = tmp_path / "nope.asm"
    bad.write_text("machine", encoding="utf-8")
    with pytest.raises(Exception):
        skeleton(bad)


@pytest.mark.parametrize("seed", range(4))
def test_init_cannot_set_an_abstract_function(tmp_path, seed):
    scn = tmp_path / "flip.scn"
    scn.write_text(f"""
scenario flip
machine {model_path('coin.asm')}
seed {seed}
init flip := true
assert 1: heads = true
""", encoding="utf-8")
    with pytest.raises(ManifestError) as refused:
        run_scenario(scn)
    assert str(refused.value) == ("init 'flip := true': "
                                  "init cannot set abstract function 'flip'")


@pytest.mark.parametrize("model, assignment, refusal", [
    ("swap.asm", "1 := 2", "override target '1' is not a location"),
    ("coin.asm", "flip := true", "init cannot set abstract function 'flip'"),
], ids=["not-a-location", "abstract"])
def test_an_init_refusal_names_its_entry(tmp_path, model, assignment, refusal):
    scn = tmp_path / "bad.scn"
    scn.write_text(f"scenario bad\nmachine {model_path(model)}\ninit {assignment}\n"
                   "final: true\n", encoding="utf-8")
    with pytest.raises(ManifestError) as refused:
        run_scenario(scn)
    assert str(refused.value) == f"init {assignment!r}: {refusal}"


@pytest.mark.parametrize("model, commands, what", [
    ("accumulator.asm", ["inc := 2; inc := 3"], "inc"),
    ("choose_out.asm", ["choose Main.choose1 = 1", "choose  Main.choose1 = 2"],
     "choose Main.choose1"),
    ("coin.asm", ["abstract flip = true; abstract flip() = false"], "abstract flip"),
])
def test_a_step_that_sets_one_input_twice_is_refused(tmp_path, model, commands, what):
    steps = "".join(f"step 1: {c}\n" for c in commands)
    scn = tmp_path / "twice.scn"
    scn.write_text(f"scenario twice\nmachine {model_path(model)}\n{steps}assert 1: true\n",
                   encoding="utf-8")
    with pytest.raises(ManifestError) as refused:
        run_scenario(scn)
    assert str(refused.value) == f"step 1 sets {what} twice"
    # one entry per input, or the same input at another step, is accepted
    once = "".join(f"step {k}: {c.split(';')[0]}\n" for k, c in enumerate(commands, 1))
    scn.write_text(f"scenario once\nmachine {model_path(model)}\n{once}assert 1: true\n",
                   encoding="utf-8")
    assert run_scenario(scn).passed


@pytest.mark.parametrize("entries", [
    "choose a1:Go.choose1 = 1; choose Go.choose1 = 2",
    "choose Go.choose1 = 2; choose a1:Go.choose1 = 1",
])
def test_an_agent_scoped_choose_wins_over_an_unscoped_one(tmp_path, entries):
    (tmp_path / "pair.asm").write_text("""
machine Pair
  controlled x/1
  rule Go = choose v in {1, 2} do x(self) := v
  main Go
  agent a1 runs Go
  agent a2 runs Go
""", encoding="utf-8")
    scn = tmp_path / "pair.scn"
    scn.write_text(f"""
scenario scoped_first
machine pair.asm
step 1: {entries}
assert 1: x('a1) = 1 and x('a2) = 2
""", encoding="utf-8")
    report = run_scenario(scn)
    assert report.passed, [(r.text, r.detail) for r in report.results]


def test_every_bundled_scenario_trace_replays_through_its_script():
    """Monitored input, draws and the schedule all travel as script entries,
    so a scenario's trace replays with no fallback seed."""
    replayed = 0
    for path in sorted(GREEN.glob("*.scn")) + sorted(MUTANT.glob("*.scn")):
        trace = run_scenario(path).trace
        sc = parse_scenario(read_source(path))
        machine = parse_machine(read_source(path.parent / sc.machine_path))
        order = tuple(cmd.split()[1] for k in sorted(sc.step_cmds)
                      for cmd in sc.step_cmds[k] if cmd.startswith("schedule "))
        scheduler = ScriptedOrder(order) if order else Synchronous()
        steps = len(trace.steps) + (trace.outcome == "stalled")
        replay = ma_run(machine, scheduler, steps, Resolver.scripted(trace.as_script()),
                        trace.start)
        assert replay.outcome == trace.outcome, path.name
        assert replay.digests() == trace.digests(), path.name
        assert export_trace_jsonl(replay) == export_trace_jsonl(trace), path.name
        replayed += 1
    assert replayed == 7


def test_a_binding_of_a_controlled_location_is_refused(tmp_path):
    scn = tmp_path / "controlled.scn"
    scn.write_text(f"scenario controlled\nmachine {model_path('accumulator.asm')}\n"
                   "step 1: total := 3\nassert 1: total = 3\n", encoding="utf-8")
    report = run_scenario(scn)
    assert not report.passed
    assert report.error == "monitored injection targets non-monitored location total"
