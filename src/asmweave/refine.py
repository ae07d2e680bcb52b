"""Bounded checking that a refined machine implements an abstract one.

Both machines are run exhaustively up to their step and branch bounds,
one agent step at a time; a machine without agents is its anonymous agent,
stepped exactly as `run` steps it. Each run is projected onto the
observation terms of its side, consecutive duplicate observations are
collapsed (so machines at different step granularities compare), and the
check passes when every refined observation sequence is accounted for by
some abstract one. A refined run cut off by its step bound only needs to
be a prefix of an abstract sequence; a run that genuinely stalled must be
matched exactly.

One depth-first walk, `enumerate_runs`, serves both sides and observes as
it goes. Runs share their states, so the work is done per distinct state,
in the `multiagent.SearchTable` that `explore` also walks: a successor's
key is derived from its parent's by the locations its move changes, the
key only picks candidates and exact content equality decides, and only an
unseen successor is fired into a new state. Each state's table entry
holds its observation, `observe(state, terms)`, taken when the walk first
reaches it, and its expansion through `multiagent.agent_successors` (with
the table's outcome memo, one per call), made when it is first popped;
the branch budget is charged on every visit. Each stack entry carries the
outcomes that reached it as parent links, its table entry and its
parent's node in a trie of collapsed observation sequences, one node per
distinct prefix, with children keyed by observation tuple; the entry's
own node is found when it is popped. The abstract walk builds the trie,
and the check marks on each node the abstract runs that end there; only
nodes some abstract run passes through count as prefixes. The refined walk
steps through the same trie, so each refined run is matched by reading its
node. No run becomes a `Trace` except a FAIL counterexample, rebuilt from
its parent links by `interp.trace_of`, as `explore` rebuilds a violation;
its observed sequence is read off its node, as the nearest abstract ones
are. `tests/refine_oracle.py` projects each `Trace` directly and is the
reference for the trie.

Verdicts are three-valued. When the abstract side was truncated in a way
that could still hide a match, the result is BudgetExhausted rather than
Fail; a Pass is only reported when every refined run was enumerated.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import BranchBudgetExceeded, ManifestError
from .interp import (Links, Trace, agents_of, eval_term, initial_state, read_override,
                     read_resolver_free, trace_of)
from .multiagent import OutcomeMemo, SearchTable, agent_successors
from .parser import (App, MachineDef, Term, directive_lines, located, parse_machine,
                     read_input)
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
# The walk


class _Node:
    """One distinct prefix of the collapsed observation sequences: its last
    observation, its children keyed by observation tuple, the markers of the
    abstract runs that end here, and whether some abstract run passes
    through it (only then is it a prefix of an abstract sequence)."""

    __slots__ = ("parent", "obs", "children", "ends", "live")

    def __init__(self, parent: Optional["_Node"], obs: Optional[tuple]) -> None:
        self.parent = parent
        self.obs = obs
        self.children: Dict[tuple, _Node] = {}
        self.ends: Tuple[str, ...] = ()
        self.live = False


# (marker, path, trie node of its collapsed observation sequence)
RunRecord = Tuple[str, Links, _Node]


def _successors(machine: MachineDef, state: State, budget: int, memo: OutcomeMemo):
    """Every agent's `agent_successors`, merged: (moves, stall reachable,
    inconsistent outcomes)."""
    moves, inconsistent, stalled = [], [], False
    for aid, rule in agents_of(machine):
        succs, bad, stalls = agent_successors(machine, state, aid, rule, budget, memo)
        moves += succs
        # an inconsistent single-agent update set ends a run
        inconsistent += bad
        stalled = stalled or stalls
    if machine.agents:
        # interleaving: an agent with nothing to do leaves the others to move
        stalled = not moves and not inconsistent
    return moves, stalled, inconsistent


def observe(state: State, terms: Sequence[Term]) -> tuple:
    """The observation of `state`: the value of each of `terms` in it."""
    return tuple([eval_term(t, state) for t in terms])


def enumerate_runs(
    machine: MachineDef,
    max_steps: int,
    budget: int,
    start: Optional[State] = None,
    terms: Sequence[Term] = (),
    trie: Optional[_Node] = None,
) -> Tuple[List[RunRecord], bool]:
    """Depth-first enumeration of all runs up to `max_steps`, observed
    through `terms` into `trie` (a fresh one when None), which gains a node
    for every new prefix the walk reaches.

    Each run is a (marker, path, node) record; `interp.trace_of(start,
    path, marker)` rebuilds its `Trace`. The second component reports
    truncation: the branch budget cut the enumeration short, so the run
    list is incomplete.
    """
    init = start if start is not None else initial_state(machine)
    runs: List[RunRecord] = []
    spent = 0
    # a table entry is [state, key, observation, expansion]: a distinct
    # state is observed when the walk first reaches it and expanded when it
    # is first popped below the bound; a revisit is still charged. An
    # expansion is (stalled, inconsistent, [(progressed, successor's entry)]).
    table = SearchTable()
    root = table.root(init)
    root += [observe(init, terms), None]
    # (depth, parent links, table entry, the parent's trie node)
    stack: List[Tuple[int, Links, list, _Node]] = [
        (0, None, root, _Node(None, None) if trie is None else trie)]
    while stack:
        depth, path, known, parent = stack.pop()
        obs = known[2]
        if obs == parent.obs:  # a stutter step stays on its node
            node = parent
        else:
            node = parent.children.get(obs)
            if node is None:
                node = parent.children[obs] = _Node(parent, obs)
        if depth >= max_steps:
            runs.append(("budget", path, node))
            continue
        if known[3] is None:
            try:
                moves, stalled, inconsistent = _successors(
                    machine, known[0], budget, table.memo)
            except BranchBudgetExceeded:
                return runs, True
            successors = []
            for move in moves:
                succ, new = table.successor(known, move)
                if new:
                    succ += [observe(succ[0], terms), None]
                successors.append((move.to(succ[0]), succ))
            known[3] = (stalled, inconsistent, successors)
        stalled, inconsistent, successors = known[3]
        spent += len(successors) + len(inconsistent)
        if spent > budget:
            return runs, True
        if stalled:
            runs.append(("stalled", path, node))
        for res in inconsistent:
            runs.append(("inconsistent", (res, path), node))
        depth += 1
        for res, succ in successors:
            stack.append((depth, (res, path), succ, node))
    return runs, False


def _tuples(node: _Node) -> tuple:
    """The collapsed observation sequence that ends at `node`."""
    seq = []
    while node.parent is not None:
        seq.append(node.obs)
        node = node.parent
    return tuple(reversed(seq))


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
    trie = _Node(None, None)
    abs_runs, abs_trunc = enumerate_runs(spec.abstract, a_steps, budget, a_start,
                                         [a for _, a, _ in spec.observations], trie)
    for marker, _, node in abs_runs:
        if marker not in node.ends:
            node.ends += (marker,)
        while node is not None and not node.live:
            node.live = True
            node = node.parent
    ref_runs, ref_trunc = enumerate_runs(spec.refined, r_steps, budget, r_start,
                                         [r for _, _, r in spec.observations], trie)
    stats = RefineStats(len(abs_runs), len(ref_runs), abs_trunc, ref_trunc)

    first_fail: Optional[RunRecord] = None
    undecided = False
    for run in ref_runs:
        marker, _, node = run
        if node.live if marker == "budget" else marker in node.ends:
            continue
        # a truncated abstract run whose observations are a prefix of this
        # one could still extend to a match at larger abstract bounds
        if abs_trunc or _cut_by_bound(node):
            undecided = True
        elif first_fail is None:
            first_fail = run

    if first_fail is not None:
        marker, path, node = first_fail
        observed = ObservationSeq(_tuples(node), marker)
        abstract_seqs = [ObservationSeq(_tuples(n), m) for m, _, n in abs_runs]
        nearest = sorted(abstract_seqs,
                         key=lambda a: -_common_prefix_len(a.tuples, observed.tuples))[:3]
        return Fail(stats, trace_of(r_start, path, marker), observed, nearest)
    if undecided or ref_trunc:
        return BudgetExhausted(stats)
    return Pass(stats)


def _cut_by_bound(node: Optional[_Node]) -> bool:
    """Whether an abstract run cut by its step bound ends at `node` or at a
    node above it."""
    while node is not None:
        if "budget" in node.ends:
            return True
        node = node.parent
    return False


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
        abstract, refined = current["abstract"], current["refined"]
        observations = []
        for lineno, label, abs_text, ref_text in current["observe"]:
            where = f"line {lineno}: observation {label!r}"
            observations.append((
                label, located(where, read_resolver_free, abs_text, abstract.sig, where),
                located(where, read_resolver_free, ref_text, refined.sig, where)))
        a_init, r_init = (
            tuple(located(f"line {lineno}: init_link {side} {text!r}", read_override,
                          text, machine) for lineno, text in current["init"][side])
            for side, machine in (("abstract", abstract), ("refined", refined)))
        steps.append(RefinementStep(
            current["name"],
            RefinementSpec(abstract, refined, tuple(observations),
                           current["bounds"], a_init, r_init)))

    for lineno, head, rest in directive_lines(text):
        if head == "step":
            finish()
            current = {"name": rest, "observe": [], "bounds": (3, 3, 10_000),
                       "init": {"abstract": [], "refined": []}}
            continue
        if current is None:
            raise ManifestError(f"line {lineno}: {head!r} before any 'step'")
        if head in ("abstract", "refined"):
            where = f"line {lineno}: {head} {rest}"
            current[head] = located(where, parse_machine, read_input(
                (base_dir / rest).resolve(), f"line {lineno}: cannot read"))
        elif head == "observe":
            if ":" not in rest or "~" not in rest:
                raise ManifestError(
                    f"line {lineno}: expected 'observe <label> : <abstract> ~ <refined>'")
            label, terms = rest.split(":", 1)
            abs_text, ref_text = terms.split("~", 1)
            current["observe"].append(
                (lineno, label.strip(), abs_text.strip(), ref_text.strip()))
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
            side, assignment = (rest.split(None, 1) + ["", ""])[:2]
            if side not in ("abstract", "refined") or ":=" not in assignment:
                raise ManifestError(
                    f"line {lineno}: expected 'init_link <side> <loc> := <term>'")
            current["init"][side].append((lineno, assignment))
        else:
            raise ManifestError(f"line {lineno}: unknown directive {head!r}")
    finish()
    return steps


def check_chain(manifest_path: Union[str, Path]) -> List[Tuple[str, RefinementVerdict]]:
    """Check every step of a refinement chain manifest, in order."""
    path = Path(manifest_path)
    steps = parse_manifest(read_input(path, "cannot read manifest"), path.parent)
    return [(s.name, check_refinement(s.spec)) for s in steps]
