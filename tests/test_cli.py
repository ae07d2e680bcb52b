"""End-to-end checks of the command-line interface and its exit statuses
(0 = success, 1 = semantic failure, 2 = usage/parse error)."""
import errno
import os
import random
import subprocess
import sys

import pytest

from conftest import MODELS, cli_env
from asmweave import cli


def asmweave(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "asmweave", *[str(a) for a in args]],
        capture_output=True, text=True, env=cli_env(env_extra))


def test_run_swap_prints_final_state():
    r = asmweave("run", MODELS / "swap.asm", "--steps", 1)
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["a = 2", "b = 1"]


def test_run_is_deterministic_under_seed():
    a = asmweave("run", MODELS / "choose_out.asm", "--steps", 5, "--seed", 7)
    b = asmweave("run", MODELS / "choose_out.asm", "--steps", 5, "--seed", 7)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_seed_env_variable_is_default(tmp_path):
    a = asmweave("run", MODELS / "choose_out.asm", "--steps", 5,
                 env_extra={"ASMWEAVE_SEED": "13"})
    b = asmweave("run", MODELS / "choose_out.asm", "--steps", 5, "--seed", 13)
    assert a.stdout == b.stdout


def test_bad_seed_env_variable_exits_2():
    r = asmweave("run", MODELS / "choose_out.asm", env_extra={"ASMWEAVE_SEED": "zz"})
    assert r.returncode == 2
    assert "--seed" in r.stderr and "'zz'" in r.stderr


def test_seed_env_variable_is_read_on_every_call(monkeypatch, capsys):
    # the parser is built once per process; the default seed is not
    argv = ["run", str(MODELS / "choose_out.asm"), "--steps", "5"]
    for seed, want in (("0", "out = 2\n"), ("1", "out = 1\n"), ("0", "out = 2\n")):
        monkeypatch.setenv("ASMWEAVE_SEED", seed)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want
        assert cli.main(argv + ["--seed", seed]) == 0
        assert capsys.readouterr().out == want
    monkeypatch.setenv("ASMWEAVE_SEED", "zz")
    assert cli.main(argv) == 2
    assert "ASMWEAVE_SEED" in capsys.readouterr().err
    assert cli.main(argv + ["--seed", "4"]) == 0


def test_run_rule_on_machine_with_agents_needs_single():
    r = asmweave("run", MODELS / "ring3.asm", "--rule", "Nope", "--steps", 2)
    assert r.returncode == 2
    assert "--rule" in r.stderr and "--agents single" in r.stderr
    assert r.stdout == ""


PARAM_RULE = """
machine P
  controlled x
  rule Set(a) = x := a
  rule Main = Set(1)
  main Main
"""


@pytest.mark.parametrize("command, rule", [
    ("run", "Nope"), ("normalize", "Nope"), ("run", "Set"), ("normalize", "Set"),
])
def test_rule_option_names_a_declared_rule_without_parameters(tmp_path, capsys,
                                                              command, rule):
    machine = tmp_path / "p.asm"
    machine.write_text(PARAM_RULE, encoding="utf-8")
    assert cli.main([command, str(machine), "--rule", rule]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"rule {rule!r}" in err
    assert ("not declared" if rule == "Nope" else "has parameters") in err


def test_run_rule_on_swap(capsys):
    assert cli.main(["run", str(MODELS / "swap.asm"), "--rule", "Nope"]) == 2
    assert cli.main(["run", str(MODELS / "swap.asm"), "--rule", "Main", "--steps", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["a = 2", "b = 1"]


@pytest.mark.parametrize("rhs", ["1" + " + 1" * 19_999, "not " * 20_000 + "true"])
@pytest.mark.parametrize("command", [["fmt", "--stdout"], ["run"]])
def test_deep_term_exits_2(tmp_path, capsys, rhs, command):
    machine = tmp_path / "deep.asm"
    machine.write_text(f"machine D controlled x rule R = x := {rhs} main R",
                       encoding="utf-8")
    assert cli.main([*command, str(machine)]) == 2
    assert "nesting too deep" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("run", MODELS / "swap.asm", "--steps", -1),
    ("explore", MODELS / "ring3.asm", "--depth", -1),
    ("explore", MODELS / "ring3.asm", "--budget", -1),
])
def test_negative_bound_exits_2(args):
    r = asmweave(*args)
    assert r.returncode == 2
    assert "non-negative" in r.stderr


def test_scenario_bad_integer_exits_2(tmp_path):
    scn = tmp_path / "bad.scn"
    scn.write_text(f"scenario bad\nmachine {MODELS / 'swap.asm'}\nseed abc\n",
                   encoding="utf-8")
    r = asmweave("scenario", scn)
    assert r.returncode == 2
    assert "line 3" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("command",
                         ["run", "fmt", "explore", "skeleton", "check-refine", "scenario"])
def test_non_utf8_input_exits_2(tmp_path, command):
    bad = tmp_path / "bad.in"
    bad.write_bytes(b"\xff\xfe" + "machine M\n".encode("utf-16-le"))
    r = asmweave(command, bad)
    assert r.returncode == 2
    assert "can't decode" in r.stderr and "Traceback" not in r.stderr
    assert "bad.in" in r.stderr


def test_fuzz_fmt_bytes_never_escapes(tmp_path, capsys):
    # flipped bytes give non-UTF-8 text, bad tokens and broken structure;
    # fmt only parses and prints, so no mutated bound can make a case slow
    rng = random.Random(31)
    sources = [p.read_bytes() for p in sorted(MODELS.glob("*.asm"))]
    for case in range(400):
        data = bytearray(rng.choice(sources))
        for _ in range(rng.randrange(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        target = tmp_path / f"mutated{case}.asm"
        target.write_bytes(bytes(data))
        assert cli.main(["fmt", "--stdout", str(target)]) in (0, 2)
    capsys.readouterr()


def test_run_parse_error_exits_2(tmp_path):
    bad = tmp_path / "broken.asm"
    bad.write_text("machine Broken controlled rule = ", encoding="utf-8")
    r = asmweave("run", bad)
    assert r.returncode == 2
    assert r.stderr.strip()
    # numbers are ASCII digits only: neither a traceback nor a silent 3
    for digit in ("²", "٣"):
        bad.write_text(f"machine D controlled a rule R = a := {digit} main R",
                       encoding="utf-8")
        r = asmweave("run", bad)
        assert r.returncode == 2
        assert f"unexpected character {digit!r}" in r.stderr
        assert "Traceback" not in r.stderr


def test_run_missing_file_exits_2():
    r = asmweave("run", "no_such_file.asm")
    assert r.returncode == 2


def test_run_inconsistent_exits_1(tmp_path):
    clash = tmp_path / "clash.asm"
    clash.write_text(
        "machine Clash controlled x rule R = par x := 1 x := 2 endpar main R",
        encoding="utf-8")
    r = asmweave("run", clash)
    assert r.returncode == 1
    assert "inconsistent" in r.stderr


def test_run_lists_a_clash_in_value_order(tmp_path, capsys):
    clash = tmp_path / "clash.asm"
    clash.write_text("machine Clash controlled x rule R = par x := 9 x := 10 endpar main R",
                     encoding="utf-8")
    assert cli.main(["run", str(clash)]) == 1
    assert capsys.readouterr().err == "run ended inconsistent:\n  x <- {9, 10}\n"


def test_run_exports_trace(tmp_path):
    out = tmp_path / "t.jsonl"
    r = asmweave("run", MODELS / "swap.asm", "--steps", 2, "--trace", out)
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith('{"step":0')


@pytest.mark.parametrize("command, status", [
    (["run", "--steps", "0"], 0),
    (["explore", "--depth", "2", "--assert", "a = 2"], 1),
])
def test_a_trace_without_steps_is_noted(tmp_path, capsys, command, status):
    out = tmp_path / "t.jsonl"
    assert cli.main([command[0], str(MODELS / "swap.asm"), *command[1:],
                     "--trace", str(out)]) == status
    assert out.read_text() == ""
    assert capsys.readouterr().err == f"note: the trace has no steps; {out} is empty\n"


@pytest.mark.parametrize("nested, calls", [(300, 80), (18, 999)])
@pytest.mark.parametrize("command", [["run"], ["explore", "--depth", "1"]])
def test_nesting_too_deep_below_the_call_bound_exits_1(tmp_path, nested, calls, command):
    machine = tmp_path / "deep.asm"
    machine.write_text(
        "machine D controlled x\n"
        f"rule R(k) = if k > 0 then {'if true then ' * nested} R(k - 1) else x := 1\n"
        f"rule Main = R({calls}) main Main\n", encoding="utf-8")
    r = asmweave(command[0], machine, *command[1:])
    assert r.returncode == 1
    assert r.stderr == ("error: evaluation nested too deeply: the stack ran out "
                        "within call depth 1000\n")


def test_normalize_pga_and_non_pga():
    ok = asmweave("normalize", MODELS / "rr_table.asm")
    assert ok.returncode == 0
    assert "normal form" in ok.stdout and "pass" in ok.stdout
    no = asmweave("normalize", MODELS / "choose_out.asm")
    assert no.returncode == 1
    assert "choose" in no.stdout


def test_check_refine_chains():
    ok = asmweave("check-refine", MODELS / "chains" / "chain_ok.refine")
    assert ok.returncode == 0
    assert ok.stdout.count("PASS") == 3
    bad = asmweave("check-refine", MODELS / "chains" / "chain_broken.refine")
    assert bad.returncode == 1
    assert "FAIL" in bad.stdout


def test_budget_line_names_the_bound_that_ran_out(tmp_path, capsys):
    steps = [("self", "rr_table", "rr_table", "1 3 10000"),
             ("choice", "choose_out", "choose_out", "3 3 5"),
             # 3 abstract nodes fit the budget, 9 refined ones do not
             ("refonly", "choose_out", "choose_out", "1 3 5")]
    manifest = tmp_path / "budget.refine"
    manifest.write_text("".join(
        f"step {name}\nabstract {MODELS / a}.asm\nrefined {MODELS / r}.asm\n"
        f"observe o : out ~ out\nbounds {bounds}\n" for name, a, r, bounds in steps),
        encoding="utf-8")
    assert cli.main(["check-refine", str(manifest)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "BUDGET  self  (abstract step bound cut a run that could still match; "
        "verdict undecided)",
        "BUDGET  choice  (branch budget exhausted on both sides; verdict undecided)",
        "BUDGET  refonly  (branch budget exhausted on the refined side; verdict undecided)",
    ]


def test_scenario_suite_exit_codes():
    green = asmweave("scenario", MODELS / "scenarios" / "green", "--json")
    assert green.returncode == 0
    assert '"passed": true' in green.stdout
    mutant = asmweave("scenario", MODELS / "scenarios" / "mutant")
    assert mutant.returncode == 1


def test_explore_safety_and_violation():
    safety = ("detected implies (active('m0) = false and active('m1) = false "
              "and active('m2) = false)")
    ok = asmweave("explore", MODELS / "ring3.asm", "--depth", 12, "--assert", safety)
    assert ok.returncode == 0
    bad = asmweave("explore", MODELS / "ring3_mutant.asm", "--depth", 12,
                   "--assert", safety)
    assert bad.returncode == 1
    assert "violated" in bad.stdout


def test_fmt_rewrites_canonically(tmp_path):
    f = tmp_path / "m.asm"
    f.write_text('machine M  controlled x, s rule R = par x := 1 s := "a\\nb" endpar main R',
                 encoding="utf-8")
    r = asmweave("fmt", f)
    assert r.returncode == 0
    text = f.read_text()
    assert text.startswith("machine M\n")
    r2 = asmweave("fmt", f)
    assert r2.returncode == 0
    assert f.read_text() == text  # canonical form is a fixed point


def test_run_and_explore_refuse_an_unhinted_abstract_function(tmp_path, capsys):
    machine = tmp_path / "g.asm"
    machine.write_text("machine M abstract g/1 controlled x rule R = x := g(1) main R",
                       encoding="utf-8")
    for command in (["run"], ["explore", "--depth", "2"]):
        assert cli.main([command[0], str(machine), *command[1:]]) == 1
        out, err = capsys.readouterr()
        assert err == "error: 1:51: abstract function 'g' has no codomain hint\n"


def test_a_term_evaluated_without_a_resolver_cannot_read_an_abstract_function(tmp_path):
    manifest = tmp_path / "flip.refine"
    manifest.write_text(f"step flip\nabstract {MODELS / 'coin.asm'}\n"
                        f"refined {MODELS / 'coin.asm'}\n\nobserve f : flip ~ flip\n",
                        encoding="utf-8")
    for args, where in ((["check-refine", manifest], "line 5: observation 'f'"),
                        (["explore", MODELS / "coin.asm", "--assert", "heads = flip"],
                         "--assert")):
        r = asmweave(*args)
        assert r.returncode == 2
        assert r.stderr.splitlines() == [
            f"error: {where} reads abstract function 'flip', which needs a resolver"]
        assert "Traceback" not in r.stderr


def test_init_terms_and_scenario_conditions_cannot_read_an_abstract_function(tmp_path,
                                                                             capsys):
    machine = tmp_path / "init.asm"
    machine.write_text("machine M\n  abstract flip\n  controlled heads\n  rule R = skip\n"
                       "  init { heads := flip }\n  main R\n", encoding="utf-8")
    scenario = tmp_path / "flip.scn"
    scenario.write_text(f"scenario flipper\nmachine {MODELS / 'coin.asm'}\nsteps 1\n"
                        "assert 1: flip\n", encoding="utf-8")
    manifest = tmp_path / "link.refine"
    manifest.write_text(f"step s\nabstract {MODELS / 'coin.asm'}\n"
                        f"refined {MODELS / 'coin.asm'}\nobserve h : heads ~ heads\n"
                        "init_link refined heads := flip\n", encoding="utf-8")
    for args, where in ((["run", machine], "5:19: init term"),
                        (["scenario", scenario], "assertion 'flip' at step 1"),
                        (["check-refine", manifest],
                         "line 5: init_link refined 'heads := flip'")):
        assert cli.main([str(a) for a in args]) == 2
        assert capsys.readouterr().err == (
            f"error: {where} reads abstract function 'flip', which needs a resolver\n")


@pytest.mark.parametrize("terms, message", [
    ("nope ~ heads", "1:1: unknown name 'nope'"),
    ("(heads ~ heads", "1:7: expected ')', found 'EOF'"),
])
def test_a_bad_observation_term_names_its_manifest_line(tmp_path, capsys, terms, message):
    manifest = tmp_path / "observe.refine"
    manifest.write_text(f"step s\nabstract {MODELS / 'coin.asm'}\n"
                        f"refined {MODELS / 'coin.asm'}\n\nobserve h : {terms}\n",
                        encoding="utf-8")
    assert cli.main(["check-refine", str(manifest)]) == 2
    assert capsys.readouterr().err == f"error: line 5: observation 'h': {message}\n"


@pytest.mark.parametrize("link, message", [
    ("refined heads := (true",
     "init_link refined 'heads := (true': 1:6: expected ')', found 'EOF'"),
    ("abstract heads := nope", "init_link abstract 'heads := nope': 1:1: unknown name 'nope'"),
])
def test_a_bad_init_link_term_names_its_manifest_line(tmp_path, capsys, link, message):
    manifest = tmp_path / "link.refine"
    manifest.write_text(f"step s\nabstract {MODELS / 'coin.asm'}\n"
                        f"refined {MODELS / 'coin.asm'}\nobserve h : heads ~ heads\n"
                        f"init_link {link}\n", encoding="utf-8")
    assert cli.main(["check-refine", str(manifest)]) == 2
    assert capsys.readouterr().err == f"error: line 5: {message}\n"


def test_a_scenario_step_value_cannot_read_an_abstract_function(tmp_path, capsys):
    scenario = tmp_path / "flip.scn"
    scenario.write_text(f"scenario flipper\nmachine {MODELS / 'coin.asm'}\n"
                        "step 1: abstract flip = flip\nfinal: true\n", encoding="utf-8")
    assert cli.main(["scenario", str(scenario)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: step 1: 'abstract flip = flip' reads abstract function 'flip', "
                   "which needs a resolver\n")


@pytest.mark.parametrize("machine, lines, message", [
    (MODELS / "swap.asm", "init a := (1", "init 'a := (1': 1:3: expected ')', found 'EOF'"),
    (MODELS / "swap.asm", "init a + 1 := 2",
     "init 'a + 1 := 2': override target 'a + 1' is not a location"),
    (MODELS / "coin.asm", "init heads := flip",
     "init 'heads := flip' reads abstract function 'flip', which needs a resolver"),
    (MODELS / "swap.asm", "assert 1: a = (2",
     "assertion 'a = (2' at step 1: 1:7: expected ')', found 'EOF'"),
    (MODELS / "swap.asm", "assert 1: nope = 1",
     "assertion 'nope = 1' at step 1: 1:1: unknown name 'nope'"),
    (MODELS / "accumulator.asm", "steps 1\nstep 3: inc := 1",
     "step 3 is beyond the run length 1"),
    (MODELS / "ring3.asm", "steps 2\nstep 1: schedule m0\nstep 2: choose Step.choose1 = 'stop",
     "step 2 lacks a schedule entry"),
    (MODELS / "ring3.asm", "step 1: schedule m9",
     "step 1: 'schedule m9': machine TokenRing has no agent 'm9'"),
    ("missing.asm", "steps 1", "cannot load machine {tmp}/missing.asm: "),
], ids=["init-syntax", "init-operator-target", "init-abstract-read", "assert-syntax",
        "assert-unknown-name", "step-past-steps", "unscheduled-step", "unknown-agent",
        "missing-machine"])
def test_a_malformed_scenario_exits_2_naming_its_entry(tmp_path, capsys, machine, lines,
                                                      message):
    scenario = tmp_path / "bad.scn"
    scenario.write_text(f"scenario bad\nmachine {machine}\n{lines}\n", encoding="utf-8")
    assert cli.main(["scenario", str(scenario)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: " + message.format(tmp=tmp_path))


def test_a_symlink_loop_is_an_unreadable_machine_not_a_crash(tmp_path):
    (tmp_path / "a.asm").symlink_to("b.asm")
    (tmp_path / "b.asm").symlink_to("a.asm")
    loop, gone = tmp_path / "a.asm", tmp_path / "gone.asm"
    why = f"{loop}: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: '{loop}'"
    manifest = tmp_path / "loop.refine"
    manifest.write_text(f"step s\nabstract {MODELS / 'swap.asm'}\nrefined a.asm\n"
                        "observe a : a ~ a\n", encoding="utf-8")
    r = asmweave("check-refine", manifest)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: line 3: cannot read {why}\n")
    scenario = tmp_path / "loop.scn"
    scenario.write_text("scenario loop\nmachine a.asm\nsteps 1\nfinal: true\n",
                        encoding="utf-8")
    r = asmweave("scenario", scenario)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: cannot load machine {why}\n")
    # in a suite the loop fails its scenario, as a missing machine file does
    suite = tmp_path / "suite"
    suite.mkdir()
    for name in ("a", "gone"):
        (suite / f"{name}.scn").write_text(
            f"scenario {name}\nmachine ../{name}.asm\nsteps 1\nfinal: true\n", encoding="utf-8")
    r = asmweave("scenario", suite)
    assert (r.returncode, r.stdout) == (1, "FAIL  scenario a.scn\nFAIL  scenario gone.scn\n")
    assert r.stderr == (f"  error: cannot load machine {why}\n"
                        f"  error: cannot load machine {gone}: "
                        f"[Errno 2] No such file or directory: '{gone}'\n")


def test_a_failing_run_is_still_a_scenario_failure(tmp_path, capsys):
    (tmp_path / "bad.asm").write_text(
        "machine B controlled x, c rule R = if c then x := 1 main R", encoding="utf-8")
    scenario = tmp_path / "err.scn"
    # guard c is undef: the input reads, the run itself errors
    scenario.write_text("scenario err\nmachine bad.asm\nsteps 1\nassert 1: x = 1\n",
                        encoding="utf-8")
    assert cli.main(["scenario", str(scenario)]) == 1
    out, err = capsys.readouterr()
    assert out == "FAIL  scenario err\n"
    assert err == "  error: 1:39: guard c evaluated to undef\n"


def test_skeleton_subcommand():
    r = asmweave("skeleton", MODELS / "accumulator.asm")
    assert r.returncode == 0
    assert "inc := undef" in r.stdout


def test_usage_error_exits_2():
    r = asmweave("no-such-command")
    assert r.returncode == 2
