import os
import re

import pytest

import refine_oracle
from conftest import MODELS, content_key, load_model
from refine_oracle import observe
from asmweave import cli, refine
from asmweave.errors import ManifestError
from asmweave.interp import Resolver, eval_term, initial_state, run, trace_of
from asmweave.refine import (
    BudgetExhausted,
    Fail,
    Pass,
    RefinementSpec,
    check_chain,
    check_refinement,
    enumerate_runs,
    parse_manifest,
)
from asmweave.parser import parse_machine, parse_term, pp_term
from asmweave.scenario import run_scenario
from asmweave.values import IntV, UNDEF

CHOICE = load_model("choose_out.asm")
RR = load_model("round_robin.asm")
RR_TABLE = load_model("rr_table.asm")
RR_STUTTER = load_model("rr_stutter.asm")
RR_BROKEN = load_model("rr_broken.asm")


def spec_for(abstract, refined, bounds=(3, 3, 10_000), obs="out"):
    return RefinementSpec(
        abstract, refined,
        ((obs, parse_term(obs, abstract.sig), parse_term(obs, refined.sig)),),
        bounds)


# ---------------------------------------------------------------------------
# observe


def test_observe_swap_values():
    swap = load_model("swap.asm")
    spec = RefinementSpec(
        swap, swap,
        (("a", parse_term("a", swap.sig), parse_term("a", swap.sig)),
         ("b", parse_term("b", swap.sig), parse_term("b", swap.sig))),
        (1, 1, 100))
    trace = run(swap, 1)
    seq = observe(trace, spec, "abstract")
    assert seq.tuples == ((IntV(1), IntV(2)), (IntV(2), IntV(1)))


def test_observe_compresses_stuttering():
    m = parse_machine(
        "machine M controlled x, t rule R = t := t = undef main R")
    spec = RefinementSpec(m, m, (("x", parse_term("x", m.sig), parse_term("x", m.sig)),),
                          (5, 5, 100))
    trace = run(m, 5)
    seq = observe(trace, spec, "refined")
    assert len(seq.tuples) == 1  # constant observation collapses fully


def test_observe_empty_trace_has_initial_observation():
    trace = run(CHOICE, 0)
    spec = spec_for(CHOICE, CHOICE)
    seq = observe(trace, spec, "abstract")
    assert seq.tuples == ((UNDEF,),)
    assert seq.marker == "budget"


# ---------------------------------------------------------------------------
# check_refinement


def test_reflexivity_pass():
    for m in (CHOICE, RR, RR_TABLE, RR_STUTTER):
        verdict = check_refinement(spec_for(m, m))
        assert isinstance(verdict, Pass), m.name


def test_choose_vs_round_robin_passes():
    verdict = check_refinement(spec_for(CHOICE, RR))
    assert isinstance(verdict, Pass)
    assert verdict.stats.abstract_runs == 27


def test_broken_refinement_fails_with_replayable_trace():
    verdict = check_refinement(spec_for(CHOICE, RR_BROKEN))
    assert isinstance(verdict, Fail)
    assert verdict.observed.tuples == ((UNDEF,), (IntV(4),))
    trace = verdict.counterexample
    replay = run(RR_BROKEN, len(trace.steps), Resolver.scripted(trace.as_script()))
    spec = spec_for(CHOICE, RR_BROKEN)
    assert observe(replay, spec, "refined").tuples == verdict.observed.tuples


def test_stuttering_refined_machine_passes():
    verdict = check_refinement(spec_for(CHOICE, RR_STUTTER, bounds=(3, 6, 10_000)))
    assert isinstance(verdict, Pass)
    verdict2 = check_refinement(spec_for(RR_TABLE, RR_STUTTER, bounds=(3, 6, 10_000)))
    assert isinstance(verdict2, Pass)


def test_monotonicity_in_abstract_bounds():
    for a_bound in (3, 4, 5):
        verdict = check_refinement(spec_for(CHOICE, RR, bounds=(a_bound, 3, 10_000)))
        assert isinstance(verdict, Pass), a_bound
    for a_bound in (3, 4, 5):
        verdict = check_refinement(spec_for(CHOICE, RR_BROKEN, bounds=(a_bound, 3, 10_000)))
        assert isinstance(verdict, Fail), a_bound


def test_budget_exhausted_rather_than_false_fail():
    # abstract counts forever; with its runs truncated at the step bound, a
    # refined machine that stalls later cannot be declared wrong
    counter = parse_machine("""
machine Counter
  controlled out
  rule Main = out := out + 1
  init { out := 0 }
  main Main
""")
    stopper = parse_machine("""
machine Stopper
  controlled out
  rule Main = if out < 3 then out := out + 1
  init { out := 0 }
  main Main
""")
    verdict = check_refinement(spec_for(counter, stopper, bounds=(2, 6, 10_000)))
    assert isinstance(verdict, BudgetExhausted)


def test_refined_branch_budget_never_passes_silently():
    verdict = check_refinement(spec_for(CHOICE, CHOICE, bounds=(3, 3, 5)))
    assert isinstance(verdict, BudgetExhausted)
    assert verdict.stats.refined_truncated or verdict.stats.abstract_truncated


def test_interleaved_agents_can_be_checked():
    ring = load_model("ring3.asm")
    spec = RefinementSpec(
        ring, ring,
        (("d", parse_term("detected", ring.sig), parse_term("detected", ring.sig)),),
        (2, 2, 10_000))
    assert isinstance(check_refinement(spec), Pass)


# ---------------------------------------------------------------------------
# manifests and chains


def test_bundled_chain_all_pass():
    results = check_chain(MODELS / "chains" / "chain_ok.refine")
    assert [name for name, _ in results] == [
        "choice_to_round_robin", "counter_to_table", "table_to_stutter"]
    assert all(isinstance(v, Pass) for _, v in results)


def test_broken_chain_reports_middle_failure_and_checks_rest():
    results = check_chain(MODELS / "chains" / "chain_broken.refine")
    kinds = [type(v).__name__ for _, v in results]
    assert kinds == ["Pass", "Fail", "Pass"]


def test_a_fail_prints_a_run_cut_by_its_step_bound_as_bound(capsys):
    # `[budget]` would read as the branch budget a BUDGET verdict names;
    # the run record keeps "budget", which exported traces and the bench read
    assert cli.main(["check-refine", str(MODELS / "chains" / "chain_broken.refine")]) == 1
    assert capsys.readouterr().out.splitlines()[1:4] == [
        "FAIL  counter_to_broken",
        "  refined observations: (undef) -> (4) [bound]",
        "  nearest abstract:    (undef) -> (1) -> (2) -> (3) [bound]"]
    (fail,) = [v for _, v in check_chain(MODELS / "chains" / "chain_broken.refine")
               if isinstance(v, Fail)]
    assert fail.observed.marker == fail.counterexample.outcome == "budget"


def test_empty_manifest_yields_empty_list():
    assert parse_manifest("// nothing here\n", MODELS / "chains") == []


def test_manifest_errors():
    base = MODELS / "chains"
    with pytest.raises(ManifestError):
        parse_manifest("abstract ../swap.asm\n", base)  # before any step
    with pytest.raises(ManifestError):
        parse_manifest("step s\nrefined ../swap.asm\nobserve a : a ~ a\n", base)
    with pytest.raises(ManifestError):
        parse_manifest("step s\nabstract ../no_such_file.asm\n", base)
    for bounds in ("3 3", "3 x 10", "3 -1 10"):
        with pytest.raises(ManifestError, match="line 2"):
            parse_manifest(f"step s\nbounds {bounds}\n", base)


def test_manifest_comment_marker_inside_a_string_is_kept():
    steps = parse_manifest('step s\nabstract ../swap.asm\nrefined ../swap.asm\n'
                           'observe a : a = "x//y" ~ a = "x//y" // same\n', MODELS / "chains")
    (label, abstract, refined), = steps[0].spec.observations
    assert pp_term(abstract) == pp_term(refined) == 'a = "x//y"'


def test_manifest_non_utf8_machine_names_its_line(tmp_path):
    (tmp_path / "bad.asm").write_bytes(b"\xff\xfemachine M\n")
    with pytest.raises(ManifestError, match="line 2"):
        parse_manifest("step s\nabstract bad.asm\n", tmp_path)


def test_manifest_machine_error_names_its_line(tmp_path, capsys):
    (tmp_path / "bad.asm").write_text(
        "machine Bad\n  controlled x\n  rule R = x := (1\n  main R\n", encoding="utf-8")
    manifest = tmp_path / "bad.refine"
    manifest.write_text(f"step s\nabstract {MODELS / 'swap.asm'}\nrefined bad.asm\n"
                        "observe a : x ~ x\n", encoding="utf-8")
    message = "line 3: refined bad.asm: 4:3: expected ')', found 'main'"
    with pytest.raises(ManifestError, match=re.escape(message)):
        parse_manifest(manifest.read_text(encoding="utf-8"), tmp_path)
    assert cli.main(["check-refine", str(manifest)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _counting_parses(monkeypatch):
    """The texts `refine.parse_machine` is called with, from now on."""
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_machine(text)

    monkeypatch.setattr(refine, "parse_machine", counting)
    return parsed


@pytest.mark.parametrize("chain, status", [("chain_ok", 0), ("chain_broken", 1)])
def test_a_manifest_parses_each_machine_file_once(chain, status, tmp_path, monkeypatch,
                                                   capsys):
    parsed = _counting_parses(monkeypatch)
    manifest = MODELS / "chains" / f"{chain}.refine"
    assert cli.main(["check-refine", str(manifest), "--trace",
                     str(tmp_path / "shared.jsonl")]) == status
    shared = capsys.readouterr().out
    # chain_ok names round_robin.asm and rr_table.asm in two steps each
    assert len(parsed) == (4 if chain == "chain_ok" else 5)
    # the same chain with each machine line naming a copy of its own
    lines = manifest.read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines):
        head, _, rest = line.partition(" ")
        if head in ("abstract", "refined"):
            (tmp_path / f"m{k}.asm").write_bytes((manifest.parent / rest).read_bytes())
            lines[k] = f"{head} m{k}.asm"
    apart = tmp_path / "apart.refine"
    apart.write_text("\n".join(lines) + "\n", encoding="utf-8")
    parsed.clear()
    assert cli.main(["check-refine", str(apart), "--trace",
                     str(tmp_path / "apart.jsonl")]) == status
    assert len(parsed) == 6
    assert capsys.readouterr().out == shared
    traces = [tmp_path / "shared.jsonl", tmp_path / "apart.jsonl"]
    if status:  # a FAIL exports its counterexample
        assert traces[0].read_bytes() == traces[1].read_bytes() != b""
    else:
        assert not any(t.exists() for t in traces)


def test_a_machine_file_named_twice_fails_on_its_first_line(tmp_path):
    (tmp_path / "bad.asm").write_text("machine Bad\n  rule R = x := (1\n", encoding="utf-8")
    text = ("step a\nabstract ../swap.asm\nrefined {bad}\nobserve a : a ~ a\n"
            "step b\nabstract {bad}\nrefined {bad}\nobserve a : a ~ a\n")
    with pytest.raises(ManifestError, match="^line 3: refined "):
        parse_manifest(text.format(bad=tmp_path / "bad.asm"), MODELS / "chains")
    with pytest.raises(ManifestError, match="^line 3: cannot read "):
        parse_manifest(text.format(bad=tmp_path / "gone.asm"), MODELS / "chains")


@pytest.mark.parametrize("spelling", ["symlink", "dotdot", "hardlink"])
def test_one_file_under_two_names_is_parsed_once(spelling, tmp_path, monkeypatch):
    # machine files are told apart by device and inode, not by their names
    (tmp_path / "sub").mkdir()
    (tmp_path / "rr.asm").write_bytes((MODELS / "round_robin.asm").read_bytes())
    other = {"symlink": "link.asm", "dotdot": "sub/../rr.asm", "hardlink": "hard.asm"}[spelling]
    if spelling == "symlink":
        (tmp_path / "link.asm").symlink_to("rr.asm")
    elif spelling == "hardlink":
        os.link(tmp_path / "rr.asm", tmp_path / "hard.asm")
    parsed = _counting_parses(monkeypatch)
    steps = parse_manifest(f"step s\nabstract rr.asm\nrefined {other}\nobserve out : out ~ out\n"
                           f"step t\nabstract {other}\nrefined rr.asm\nobserve out : out ~ out\n",
                           tmp_path)
    assert len(parsed) == 1
    assert len({id(m) for s in steps for m in (s.spec.abstract, s.spec.refined)}) == 1
    # two files with the same text are still two files
    (tmp_path / "copy.asm").write_bytes((tmp_path / "rr.asm").read_bytes())
    parse_manifest("step s\nabstract rr.asm\nrefined copy.asm\nobserve out : out ~ out\n",
                   tmp_path)
    assert len(parsed) == 3


def test_an_unreadable_machine_file_is_named_by_its_resolved_path(tmp_path, monkeypatch):
    (tmp_path / "sub").mkdir()
    (tmp_path / "bad.asm").write_bytes(b"\xff\xfemachine M\n")
    (tmp_path / "dangling.asm").symlink_to("gone.asm")
    gone, bad = tmp_path / "gone.asm", tmp_path / "bad.asm"
    missing = f"[Errno 2] No such file or directory: '{gone}'"
    encoding = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    parsed = _counting_parses(monkeypatch)
    for name, shown in [("sub/../gone.asm", f"{gone}: {missing}"),
                        ("dangling.asm", f"{gone}: {missing}"),
                        ("sub/../bad.asm", f"{bad}: {encoding}")]:
        with pytest.raises(ManifestError) as e:
            parse_manifest(f"step s\nabstract {name}\n", tmp_path)
        assert str(e.value) == f"line 2: cannot read {shown}"
        scenario = tmp_path / "s.scn"
        scenario.write_text(f"scenario s\nmachine {name}\nsteps 1\n", encoding="utf-8")
        with pytest.raises(ManifestError) as e:
            run_scenario(scenario)
        assert str(e.value) == f"cannot load machine {shown}"
    assert parsed == []


def test_init_link_aligns_initial_states():
    base = MODELS / "chains"
    misaligned = """
step shifted
abstract ../round_robin.asm
refined ../round_robin.asm
observe out : out ~ out
bounds 3 3 1000
init_link refined counter := 1
"""
    (step,) = parse_manifest(misaligned, base)
    from asmweave.refine import check_refinement as chk
    assert isinstance(chk(step.spec), Fail)

    aligned = misaligned + "init_link abstract counter := 1\n"
    (step2,) = parse_manifest(aligned, base)
    assert isinstance(chk(step2.spec), Pass)


@pytest.mark.parametrize("gap", ["\t", " \t ", "   "])
def test_init_link_side_ends_at_any_whitespace(gap):
    (step,) = parse_manifest(
        "step s\nabstract ../round_robin.asm\nrefined ../round_robin.asm\n"
        f"observe out : out ~ out\ninit_link refined{gap}counter := 1\n", MODELS / "chains")
    assert [(pp_term(loc), pp_term(t)) for loc, t in step.spec.refined_init] == [
        ("counter", "1")]
    assert step.spec.abstract_init == ()


def test_init_link_cannot_set_an_abstract_function(tmp_path, capsys):
    manifest = tmp_path / "flip.refine"
    manifest.write_text(f"""
step flip
abstract {MODELS / 'coin.asm'}
refined {MODELS / 'coin.asm'}
observe heads : heads ~ heads
init_link abstract flip := true
""", encoding="utf-8")
    with pytest.raises(ManifestError, match="init cannot set abstract function 'flip'"):
        parse_manifest(manifest.read_text(encoding="utf-8"), tmp_path)
    assert cli.main(["check-refine", str(manifest)]) == 2
    assert capsys.readouterr().err == ("error: line 6: init_link abstract 'flip := true': "
                                       "init cannot set abstract function 'flip'\n")


@pytest.mark.parametrize("model, assignment, refusal", [
    ("swap.asm", "1 := 2", ": override target '1' is not a location"),
    ("coin.asm", "flip := true", ": init cannot set abstract function 'flip'"),
    ("coin.asm", "heads := flip",
     " reads abstract function 'flip', which needs a resolver"),
], ids=["not-a-location", "abstract", "reads-abstract"])
def test_an_init_link_refusal_names_its_line(tmp_path, capsys, model, assignment, refusal):
    manifest = tmp_path / "bad.refine"
    manifest.write_text(f"step bad\nabstract {MODELS / model}\nrefined {MODELS / model}\n"
                        f"observe one : 1 ~ 1\ninit_link refined {assignment}\n",
                        encoding="utf-8")
    assert cli.main(["check-refine", str(manifest)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: line 5: init_link refined {assignment!r}{refusal}\n"


def test_enumerate_runs_markers():
    stopper = parse_machine("""
machine S
  controlled out
  rule Main = if out < 2 then out := out + 1
  init { out := 0 }
  main Main
""")
    runs, truncated = enumerate_runs(stopper, 10, 10_000)
    assert not truncated
    (marker, path), = runs
    assert len(runs) == 1
    trace = trace_of(initial_state(stopper), path, marker)
    assert trace.outcome == "stalled"
    assert [eval_term(parse_term("out", stopper.sig), s) for s in trace.states] == [
        IntV(0), IntV(1), IntV(2)]
    clash = parse_machine(
        "machine C controlled x rule Main = par x := 1 x := 2 endpar main Main")
    runs2, _ = enumerate_runs(clash, 10, 10_000)
    marker, path = next(iter(runs2))
    trace2 = trace_of(initial_state(clash), path, marker)
    assert trace2.outcome == "inconsistent"
    assert len(trace2.steps) == 1 and trace2.clashes


@pytest.mark.parametrize("budget, verdict, abstract_runs", [
    (1, BudgetExhausted, 0),
    # the walk reached (0) -> (1) on the abstract side as its fourth node,
    # and the budget cut it before any run through it was recorded: not a prefix
    (3, BudgetExhausted, 2),
    (4, Pass, 4),
])
def test_only_recorded_abstract_runs_make_prefixes(budget, verdict, abstract_runs):
    abstract = parse_machine("machine A controlled out "
                             "rule Main = choose x in {1, 2} do out := x "
                             "init { out := 0 } main Main")
    refined = parse_machine("machine R controlled out rule Main = out := 1 "
                            "init { out := 0 } main Main")
    spec = spec_for(abstract, refined, bounds=(2, 1, budget))
    got = check_refinement(spec)
    assert type(got) is verdict
    assert got.stats.abstract_runs == abstract_runs
    assert got == refine_oracle.check_refinement(spec)


def test_the_walk_observes_each_distinct_state_once_per_side(monkeypatch):
    calls, observe_state = [], refine.observe

    def counting(state, terms):
        calls.append(content_key(state))
        return observe_state(state, terms)

    monkeypatch.setattr(refine, "observe", counting)
    for step in parse_manifest((MODELS / "chains" / "chain_ok.refine").read_text(
            encoding="utf-8"), MODELS / "chains"):
        spec = step.spec
        a_steps, r_steps, budget = spec.bounds
        sides = []
        for machine, init, steps in ((spec.abstract, spec.abstract_init, a_steps),
                                     (spec.refined, spec.refined_init, r_steps)):
            runs, _ = refine_oracle.enumerate_runs(
                machine, steps, budget, initial_state(machine, init))
            sides.append({content_key(s) for run in runs for s in run.states})
        calls.clear()
        assert isinstance(check_refinement(spec), Pass)
        # the abstract walk runs first
        abstract = len(sides[0])
        assert len(calls) == abstract + len(sides[1]), step.name
        assert (set(calls[:abstract]), set(calls[abstract:])) == tuple(sides), step.name


def test_chain_ok_at_bounds_40_counts_its_runs(tmp_path, capsys):
    # 3^40 abstract runs: counted on the graph, never walked one by one; the
    # default budget caps the abstract side's 120 nodes, not its runs
    text = (MODELS / "chains" / "chain_ok.refine").read_text(encoding="utf-8")
    text = re.sub(r"(?m)^bounds .*$", "bounds 40 40 10000", text)
    text = text.replace("../", f"{MODELS}/")
    manifest = tmp_path / "deep.refine"
    manifest.write_text(text, encoding="utf-8")
    assert cli.main(["check-refine", str(manifest)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"PASS  choice_to_round_robin  (abstract runs: {3 ** 40}, refined runs: 1)",
        "PASS  counter_to_table  (abstract runs: 1, refined runs: 1)",
        "PASS  table_to_stutter  (abstract runs: 1, refined runs: 1)",
    ]


def test_the_budget_caps_the_nodes_a_side_builds():
    top, truncated = enumerate_runs(CHOICE, 40, 50)
    assert truncated
    (_, start), = top.children
    nodes, todo = set(), [start]
    while todo:
        for _, child in todo.pop().children:
            if child not in nodes:
                nodes.add(child)
                todo.append(child)
    assert 0 < len(nodes) <= 50


@pytest.mark.parametrize("obs", ["out", "1"])
def test_deep_deterministic_chains_pass(obs):
    # 3000 steps each side: nothing in the check recurses per step
    verdict = check_refinement(spec_for(RR, RR_TABLE, bounds=(3000, 3000, 10_000), obs=obs))
    assert isinstance(verdict, Pass)
    assert (verdict.stats.abstract_runs, verdict.stats.refined_runs) == (1, 1)


def test_a_fail_reports_the_first_failing_run_in_walk_order():
    # one state ends a stalled run (x = 1 or 3) and an inconsistent one
    # (x = 2); the abstract machine has neither, and the stalled run is first
    abstract = parse_machine("machine A controlled out rule Main = out := 1 "
                             "init { out := 0 } main Main")
    refined = parse_machine("machine R controlled out, y rule Main = "
                            "choose x in {1, 2, 3} do if x = 2 then par y := 1 y := 2 endpar "
                            "init { out := 0 } main Main")
    spec = spec_for(abstract, refined, bounds=(1, 1, 100))
    got = check_refinement(spec)
    assert isinstance(got, Fail) and got.observed.marker == "stalled"
    assert got == refine_oracle.check_refinement(spec)


def _fail_report(tmp_path, capsys, bounds: str) -> list:
    manifest = tmp_path / "choice.refine"
    manifest.write_text(f"step choice_to_broken\nabstract {MODELS}/choose_out.asm\n"
                        f"refined {MODELS}/rr_broken.asm\nobserve out : out ~ out\n"
                        f"bounds {bounds}\n", encoding="utf-8")
    assert cli.main(["check-refine", str(manifest)]) == 1
    return capsys.readouterr().out.splitlines()


def test_a_fail_ranks_the_nearest_abstract_runs_on_the_graph(tmp_path, capsys, monkeypatch):
    shallow = _fail_report(tmp_path, capsys, "3 3 10000")
    nearest = [line for line in shallow if line.startswith("  nearest abstract:")]
    assert len(nearest) == 3

    def no_listing(self):
        raise AssertionError("a FAIL listed the abstract runs")

    # 3^40 abstract runs: ranked on the graph, never listed one by one
    monkeypatch.setattr(refine._Node, "__iter__", no_listing)
    deep = _fail_report(tmp_path, capsys, f"40 40 {10 ** 30}")
    assert deep[0] == "FAIL  choice_to_broken"
    assert [line for line in deep if line.startswith("  nearest abstract:")] == nearest


def test_a_deep_deterministic_fail_reports_its_one_abstract_run():
    # 25000 steps each side: neither the walk nor the ranking recurses per step
    verdict = check_refinement(spec_for(RR, RR_BROKEN, bounds=(25_000, 25_000, 10 ** 12)))
    assert isinstance(verdict, Fail)
    (near,) = verdict.nearest_abstract
    assert near.marker == "budget"
    assert near.tuples == ((UNDEF,),) + tuple((IntV(i % 3 + 1),) for i in range(25_000))
