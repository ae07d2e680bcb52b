"""Bounded checking that a refined machine implements an abstract one.

Both machines are run exhaustively up to their step and branch bounds,
one agent step at a time; a machine without agents is its anonymous agent,
stepped exactly as `run` steps it. Runs are `Trace`s whose steps are the
outcomes `agent_successors` returned, so a FAIL counterexample is the
refined run itself. Each run is projected onto the observation terms of
its side, consecutive duplicate observations are collapsed (so machines
at different step granularities compare), and the check passes when
every refined observation sequence is accounted for by some abstract
one. A refined run cut off by its step bound only needs to be a prefix
of an abstract sequence; a run that genuinely stalled must be matched
exactly.

Runs share their states, so the work is done per distinct state, told
apart by its exact content (`State.key`): `enumerate_runs` expands each
once through `multiagent.agent_successors`, the expansion `explore` uses,
with one outcome memo per call, and charges the branch budget on every
visit, `observe` evaluates each once per side, and each refined sequence
is matched by set lookups in indexes built over the abstract sequences.

Verdicts are three-valued. When the abstract side was truncated in a way
that could still hide a match, the result is BudgetExhausted rather than
Fail; a Pass is only reported when every refined run was enumerated.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .errors import BranchBudgetExceeded, ManifestError, SourceEncodingError
from .interp import Progressed, Trace, agents_of, eval_term, initial_state, read_override
from .multiagent import OutcomeMemo, agent_successors
from .parser import App, MachineDef, Term, directive_lines, parse_machine, parse_term, read_source
from .state import State
from .values import Value


@dataclass
class RefinementSpec:
    abstract: MachineDef
    refined: MachineDef
    # (label, term over the abstract signature, term over the refined signature)
    observations: Tuple[Tuple[str, Term, Term], ...]
    bounds: Tuple[int, int, int]  # max abstract steps, max refined steps, branch budget
    abstract_init: Tuple[Tuple[App, Term], ...] = ()
    refined_init: Tuple[Tuple[App, Term], ...] = ()


@dataclass(frozen=True)
class ObservationSeq:
    tuples: Tuple[Tuple[Value, ...], ...]
    marker: str  # stalled | budget | inconsistent

    def pretty(self) -> str:
        from .values import show_value

        shown = " -> ".join(
            "(" + ", ".join(show_value(v) for v in t) + ")" for t in self.tuples
        )
        return f"{shown} [{self.marker}]"


@dataclass
class RefineStats:
    abstract_runs: int
    refined_runs: int
    abstract_truncated: bool
    refined_truncated: bool


@dataclass
class Pass:
    stats: RefineStats


@dataclass
class Fail:
    stats: RefineStats
    counterexample: Trace
    observed: ObservationSeq
    nearest_abstract: List[ObservationSeq]


@dataclass
class BudgetExhausted:
    stats: RefineStats


RefinementVerdict = Union[Pass, Fail, BudgetExhausted]


# ---------------------------------------------------------------------------
# Run enumeration


class _Truncated(Exception):
    pass


def _successors(machine: MachineDef, state: State, budget: int, memo: OutcomeMemo):
    """Every agent's `agent_successors`, merged: (progressed outcomes, stall
    reachable, inconsistent outcomes)."""
    progressed, inconsistent, stalled = [], [], False
    for aid, rule in agents_of(machine):
        succs, bad, stalls = agent_successors(machine, state, aid, rule, budget, memo)
        progressed += succs
        # an inconsistent single-agent update set ends a run
        inconsistent += bad
        stalled = stalled or stalls
    if machine.agents:
        # interleaving: an agent with nothing to do leaves the others to move
        stalled = not progressed and not inconsistent
    return progressed, stalled, inconsistent


def enumerate_runs(
    machine: MachineDef,
    max_steps: int,
    budget: int,
    start: Optional[State] = None,
) -> Tuple[List[Trace], bool]:
    """Depth-first enumeration of all runs up to `max_steps`, as traces.

    The second component reports truncation: the branch budget cut the
    enumeration short, so the run list is incomplete.
    """
    init = start if start is not None else initial_state(machine)
    runs: List[Trace] = []
    spent = [0]
    # each distinct state is expanded once; a revisit is still charged
    expanded: Dict[frozenset, tuple] = {}
    memo: OutcomeMemo = {}

    def charge(n: int) -> None:
        spent[0] += n
        if spent[0] > budget:
            raise _Truncated()

    # (state, the steps that reached it)
    stack: List[Tuple[State, List[Progressed]]] = [(init, [])]
    try:
        while stack:
            state, steps = stack.pop()
            if len(steps) >= max_steps:
                runs.append(Trace(init, steps, "budget"))
                continue
            key = state.key()
            if key not in expanded:
                try:
                    expanded[key] = _successors(machine, state, budget, memo)
                except BranchBudgetExceeded:
                    raise _Truncated() from None
            progressed, stalled, inconsistent = expanded[key]
            charge(len(progressed) + len(inconsistent))
            if stalled:
                runs.append(Trace(init, steps, "stalled"))
            for res in inconsistent:
                runs.append(Trace(init, steps + [res], "inconsistent"))
            for res in progressed:
                stack.append((res.next_state, steps + [res]))
    except _Truncated:
        return runs, True
    return runs, False


# ---------------------------------------------------------------------------
# Observation


def observe(trace: Trace, spec: RefinementSpec, side: str,
            seen: Optional[Dict[frozenset, tuple]] = None) -> ObservationSeq:
    """Project a run onto the side's observation terms, stutter-compressed.
    A run cut off at a violation counts as cut off by the step bound.
    `seen` maps state keys to observation tuples; pass one dict for all runs
    of one side, so each distinct state is observed once."""
    if side == "abstract":
        terms = [abs_t for _, abs_t, _ in spec.observations]
    elif side == "refined":
        terms = [ref_t for _, _, ref_t in spec.observations]
    else:
        raise ValueError(f"side must be abstract or refined, not {side!r}")
    marker = "budget" if trace.outcome == "violation" else trace.outcome
    seen = {} if seen is None else seen
    seq: List[Tuple[Value, ...]] = []
    for s in trace.states:
        obs = seen.get(s.key())
        if obs is None:
            obs = seen[s.key()] = tuple(eval_term(t, s) for t in terms)
        if not seq or seq[-1] != obs:
            seq.append(obs)
    return ObservationSeq(tuple(seq), marker)


def _prefixes(t: tuple) -> List[tuple]:
    return [t[:n] for n in range(len(t) + 1)]


def _common_prefix_len(a: tuple, b: tuple) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


# ---------------------------------------------------------------------------
# The check


def check_refinement(spec: RefinementSpec) -> RefinementVerdict:
    a_steps, r_steps, budget = spec.bounds
    a_start = initial_state(spec.abstract, spec.abstract_init)
    r_start = initial_state(spec.refined, spec.refined_init)
    abs_runs, abs_trunc = enumerate_runs(spec.abstract, a_steps, budget, a_start)
    ref_runs, ref_trunc = enumerate_runs(spec.refined, r_steps, budget, r_start)
    abs_seen: Dict[frozenset, tuple] = {}
    abstract_seqs = [observe(r, spec, "abstract", abs_seen) for r in abs_runs]
    stats = RefineStats(len(abs_runs), len(ref_runs), abs_trunc, ref_trunc)
    # indexes over the abstract sequences: a refined run is matched by a few
    # set lookups, not by a scan of every abstract run
    exact = {(a.marker, a.tuples) for a in abstract_seqs}
    prefixes = {p for _, t in exact for p in _prefixes(t)}
    cut_by_bound = {t for marker, t in exact if marker == "budget"}

    ref_seen: Dict[frozenset, tuple] = {}
    first_fail: Optional[Tuple[Trace, ObservationSeq]] = None
    undecided = False
    for r in ref_runs:
        o = observe(r, spec, "refined", ref_seen)
        if o.marker == "budget":
            matched = o.tuples in prefixes
        else:
            matched = (o.marker, o.tuples) in exact
        if matched:
            continue
        # a truncated abstract run whose observations are a prefix of this
        # one could still extend to a match at larger abstract bounds
        possible = abs_trunc or any(p in cut_by_bound for p in _prefixes(o.tuples))
        if possible:
            undecided = True
        elif first_fail is None:
            first_fail = (r, o)

    if first_fail is not None:
        r, o = first_fail
        nearest = sorted(abstract_seqs,
                         key=lambda a: -_common_prefix_len(a.tuples, o.tuples))[:3]
        return Fail(stats, r, o, nearest)
    if undecided or ref_trunc:
        return BudgetExhausted(stats)
    return Pass(stats)


# ---------------------------------------------------------------------------
# Manifests and chains


@dataclass
class RefinementStep:
    name: str
    spec: RefinementSpec


def parse_manifest(text: str, base_dir: Path) -> List[RefinementStep]:
    """Parse a chain manifest; see the documented format in the README."""
    steps: List[RefinementStep] = []
    current: Optional[dict] = None

    def finish() -> None:
        if current is None:
            return
        for required in ("abstract", "refined"):
            if required not in current:
                raise ManifestError(
                    f"step {current['name']!r} is missing a {required} machine")
        if not current["observe"]:
            raise ManifestError(f"step {current['name']!r} declares no observations")
        abstract = parse_machine(current["abstract"])
        refined = parse_machine(current["refined"])
        observations = []
        for label, abs_text, ref_text in current["observe"]:
            observations.append((label,
                                 parse_term(abs_text, abstract.sig),
                                 parse_term(ref_text, refined.sig)))
        a_init = tuple(read_override(t, abstract) for t in current["init"]["abstract"])
        r_init = tuple(read_override(t, refined) for t in current["init"]["refined"])
        steps.append(RefinementStep(
            current["name"],
            RefinementSpec(abstract, refined, tuple(observations),
                           current["bounds"], a_init, r_init)))

    for lineno, line in directive_lines(text):
        words = line.split(None, 1)
        head, rest = words[0], (words[1].strip() if len(words) > 1 else "")
        if head == "step":
            finish()
            current = {"name": rest, "observe": [], "bounds": (3, 3, 10_000),
                       "init": {"abstract": [], "refined": []}}
            continue
        if current is None:
            raise ManifestError(f"line {lineno}: {head!r} before any 'step'")
        if head in ("abstract", "refined"):
            current[head] = _read((base_dir / rest).resolve(), f"line {lineno}: cannot read")
        elif head == "observe":
            if ":" not in rest or "~" not in rest:
                raise ManifestError(
                    f"line {lineno}: expected 'observe <label> : <abstract> ~ <refined>'")
            label, terms = rest.split(":", 1)
            abs_text, ref_text = terms.split("~", 1)
            current["observe"].append((label.strip(), abs_text.strip(), ref_text.strip()))
        elif head == "bounds":
            try:
                bounds = tuple(int(p) for p in rest.split())
            except ValueError:
                bounds = ()
            if len(bounds) != 3 or min(bounds) < 0:
                raise ManifestError(
                    f"line {lineno}: bounds needs three non-negative integers")
            current["bounds"] = bounds
        elif head == "init_link":
            side, _, assignment = rest.partition(" ")
            if side not in ("abstract", "refined") or ":=" not in assignment:
                raise ManifestError(
                    f"line {lineno}: expected 'init_link <side> <loc> := <term>'")
            current["init"][side].append(assignment)
        else:
            raise ManifestError(f"line {lineno}: unknown directive {head!r}")
    finish()
    return steps


def _read(path: Path, failure: str) -> str:
    """`read_source`, with a failure reported as a ManifestError that
    starts with `failure` and names the path."""
    try:
        return read_source(path)
    except SourceEncodingError as e:  # its message starts with the path
        raise ManifestError(f"{failure} {e}") from None
    except OSError as e:
        raise ManifestError(f"{failure} {path}: {e}") from None


def check_chain(manifest_path: Union[str, Path]) -> List[Tuple[str, RefinementVerdict]]:
    """Check every step of a refinement chain manifest, in order."""
    path = Path(manifest_path)
    steps = parse_manifest(_read(path, "cannot read manifest"), path.parent)
    return [(s.name, check_refinement(s.spec)) for s in steps]
