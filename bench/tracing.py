"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced function with a wrapper at every
name the program's modules bind it to (a function imported with
`from .state import fire` is bound in several modules), and `uninstall()`
puts the originals back. Each wrapper records a span — name, start, end,
parent span and the command (request) it belongs to — plus counts taken
from the call's arguments or result. Spans are kept in memory;
`layer_metrics()` folds them into the per-layer metrics and `write_spans()`
writes them out as JSON lines.

A target that no longer exists in the program is recorded in `missing`,
and the metrics that need it are left out instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# span name -> (module, qualified name). Span names use the layer names.
TARGETS = {
    "parser.parse_machine": ("asmweave.parser", "parse_machine"),
    "parser.parse_term": ("asmweave.parser", "parse_term"),
    "interp.begin_step": ("asmweave.interp", "Resolver.begin_step"),
    "interp.enumerate_steps": ("asmweave.interp", "enumerate_steps"),
    "interp.enumerate_update_sets": ("asmweave.interp", "enumerate_update_sets"),
    "interp.step": ("asmweave.interp", "step"),
    "interp.run": ("asmweave.interp", "run"),
    "interp.instantiate_call": ("asmweave.interp", "instantiate_call"),
    "state.fire": ("asmweave.state", "fire"),
    "state.controlled_digest": ("asmweave.state", "controlled_digest"),
    "state.state_digest": ("asmweave.state", "state_digest"),
    "multiagent.ma_run": ("asmweave.multiagent", "ma_run"),
    "multiagent.ma_step": ("asmweave.multiagent", "ma_step"),
    "multiagent.can_progress": ("asmweave.multiagent", "_can_progress"),
    "multiagent.explore": ("asmweave.multiagent", "explore"),
    "multiagent.agent_successors": ("asmweave.multiagent", "agent_successors"),
    "refine.check_refinement": ("asmweave.refine", "check_refinement"),
    "refine.enumerate_runs": ("asmweave.refine", "enumerate_runs"),
    "refine.successors": ("asmweave.refine", "_successors"),
    "refine.observe": ("asmweave.refine", "observe"),
    "normalform.normalize": ("asmweave.normalform", "normalize"),
    "normalform.equivalence_check": ("asmweave.normalform", "equivalence_check"),
    "scenario.run_scenario": ("asmweave.scenario", "run_scenario"),
    "scenario.run_suite": ("asmweave.scenario", "run_suite"),
}

PARSER = ("parser.parse_machine", "parser.parse_term")
DIGESTS = ("state.controlled_digest", "state.state_digest")

# per-layer metric -> span names it is computed from
NEEDS = {
    "parser.parse_calls": PARSER,
    "parser.parse_s": PARSER,
    "interp.rule_evals": ("interp.begin_step",),
    "interp.outcomes": ("interp.enumerate_steps",),
    "interp.useful_eval_ratio": ("interp.enumerate_steps", "interp.begin_step"),
    "interp.enumerate_s": ("interp.enumerate_steps",),
    "interp.enumerate_calls": ("interp.enumerate_steps",),
    "interp.step_s": ("interp.step",),
    "interp.instantiate_calls": ("interp.instantiate_call",),
    "interp.instantiate_s": ("interp.instantiate_call",),
    "state.digest_calls": DIGESTS,
    "state.digest_s": DIGESTS,
    "state.fire_calls": ("state.fire",),
    "state.fire_s": ("state.fire",),
    "multiagent.explore_self_s": ("multiagent.explore",),
    "multiagent.successors_generated": ("multiagent.explore", "multiagent.agent_successors"),
    "multiagent.new_state_ratio": ("multiagent.explore", "multiagent.agent_successors"),
    "multiagent.can_progress_calls": ("multiagent.can_progress",),
    "multiagent.ma_step_s": ("multiagent.ma_step",),
    "refine.runs": ("refine.enumerate_runs",),
    "refine.expansions_per_distinct_state": ("refine.successors",),
    "refine.enumerate_runs_s": ("refine.enumerate_runs",),
    "refine.observe_s": ("refine.observe",),
    "refine.match_s": ("refine.check_refinement",),
    "normalform.equiv_s": ("normalform.equivalence_check",),
    "normalform.enum_update_sets_calls": ("interp.enumerate_update_sets",),
    "scenario.run_s": ("scenario.run_scenario",),
}

# metrics that are exact (counts and their ratios); two traced runs of one
# commit and seed must agree on them
EXACT = ("parser.parse_calls", "interp.rule_evals", "interp.outcomes",
         "interp.useful_eval_ratio", "interp.enumerate_calls",
         "interp.instantiate_calls", "state.digest_calls", "state.fire_calls",
         "multiagent.successors_generated", "multiagent.new_state_ratio",
         "multiagent.can_progress_calls", "refine.runs",
         "refine.expansions_per_distinct_state", "normalform.enum_update_sets_calls")


def _resolve(module: str, qualname: str):
    """(owner object, attribute name, current value), or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index, request]
        self.request = 0
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._counts: Counter = Counter()
        self._refine_states: set = set()
        self._patches: List[tuple] = []  # (owner, attribute, original)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(rec, args, result)
            return result

        return wrapper

    def _count_outcomes(self, rec, args, result) -> None:
        self._counts["interp.outcomes"] += len(result)

    def _count_successors(self, rec, args, result) -> None:
        parent = rec[3]
        if parent >= 0 and self.spans[parent][0] == "multiagent.explore":
            self._counts["explore.successors"] += len(result[0])

    def _count_new_states(self, rec, args, result) -> None:
        self._counts["explore.new_states"] += result.states_visited - 1

    def _count_runs(self, rec, args, result) -> None:
        self._counts["refine.runs"] += len(result[0])

    def _count_refine_state(self, rec, args, result) -> None:
        # distinct per command: machines are parsed afresh by every command
        machine, state = args[0], args[1]
        self._refine_states.add((rec[4], id(machine), frozenset(state.content.items())))

    def install(self) -> None:
        """Wrap every target at each name a loaded program module binds it to."""
        counters = {
            "interp.enumerate_steps": self._count_outcomes,
            "multiagent.agent_successors": self._count_successors,
            "multiagent.explore": self._count_new_states,
            "refine.enumerate_runs": self._count_runs,
            "refine.successors": self._count_refine_state,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "asmweave" or n.startswith("asmweave."))]
        self.missing = []
        for name, (module, qualname) in TARGETS.items():
            found = _resolve(module, qualname)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original, counters.get(name))
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and not (mod is owner and key == attr):
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counts (between rounds)."""
        self.spans.clear()
        self._counts.clear()
        self._refine_states.clear()

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics over the spans recorded since the last reset.
        Times are in seconds; a ratio whose base is 0 reads 0."""
        calls: Counter = Counter()
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - child_time[i]
            # time a layer's functions spend, counted once when they nest
            if parent < 0 or self.spans[parent][0] != name:
                total[name] += end - start
        evals_in_enum = sum(1 for name, _, _, parent, _ in self.spans
                            if name == "interp.begin_step" and parent >= 0
                            and self.spans[parent][0] == "interp.enumerate_steps")
        c = self._counts
        ratio = lambda a, b: a / b if b else 0.0
        parse_s = sum(end - start for name, start, end, parent, _ in self.spans
                      if name in PARSER and (parent < 0 or self.spans[parent][0] not in PARSER))
        values = {
            "parser.parse_calls": sum(calls[n] for n in PARSER),
            "parser.parse_s": parse_s,
            "interp.rule_evals": calls["interp.begin_step"],
            "interp.outcomes": c["interp.outcomes"],
            "interp.useful_eval_ratio": ratio(c["interp.outcomes"], evals_in_enum),
            "interp.enumerate_s": total["interp.enumerate_steps"],
            "interp.enumerate_calls": calls["interp.enumerate_steps"],
            "interp.step_s": total["interp.step"],
            "interp.instantiate_calls": calls["interp.instantiate_call"],
            "interp.instantiate_s": total["interp.instantiate_call"],
            "state.digest_calls": sum(calls[n] for n in DIGESTS),
            "state.digest_s": sum(total[n] for n in DIGESTS),
            "state.fire_calls": calls["state.fire"],
            "state.fire_s": total["state.fire"],
            "multiagent.explore_self_s": own["multiagent.explore"],
            "multiagent.successors_generated": c["explore.successors"],
            "multiagent.new_state_ratio": ratio(c["explore.new_states"],
                                                c["explore.successors"]),
            "multiagent.can_progress_calls": calls["multiagent.can_progress"],
            "multiagent.ma_step_s": total["multiagent.ma_step"],
            "refine.runs": c["refine.runs"],
            "refine.expansions_per_distinct_state": ratio(calls["refine.successors"],
                                                          len(self._refine_states)),
            "refine.enumerate_runs_s": total["refine.enumerate_runs"],
            "refine.observe_s": total["refine.observe"],
            "refine.match_s": own["refine.check_refinement"],
            "normalform.equiv_s": total["normalform.equivalence_check"],
            "normalform.enum_update_sets_calls": calls["interp.enumerate_update_sets"],
            "scenario.run_s": total["scenario.run_scenario"],
        }
        return {k: v for k, v in values.items()
                if not any(n in self.missing for n in NEEDS[k])}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                      "parent": parent, "request": request}) + "\n")
