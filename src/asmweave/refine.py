"""Bounded checking that a refined machine implements an abstract one.

Both machines are run exhaustively up to their step and branch bounds,
one agent step at a time; a machine without agents is its anonymous agent,
stepped exactly as `run` steps it. Each run is projected onto the
observation terms of its side, consecutive duplicate observations are
collapsed (so machines at different step granularities compare), and the
check passes when every refined observation sequence is accounted for by
some abstract one. A refined run cut off by its step bound only needs to
be a prefix of an abstract sequence; a run that genuinely stalled must be
matched exactly. Verdicts are three-valued: when the abstract side was
truncated in a way that could still hide a match, the result is
BudgetExhausted rather than Fail, and a Pass needs every refined run.

No run is walked: `enumerate_runs` builds each side's graph of (state,
depth) nodes on a `multiagent.SearchTable`, observing and expanding each
distinct state once, in depth-first order. The branch budget caps the
nodes built per side, past the start node, and bounds each step's
resolutions as `explore --budget` does; a side cut by either keeps a
depth-first prefix of its runs. `check_refinement` pairs
refined nodes with the abstract nodes that match their collapsed
observations (a subset construction, De Wulf et al., "Antichains", CAV
2006, for Börger's (m, n) diagrams, FAC 2003), in one depth-first walk of
the product in run order that stops at the first failing run. No run is
listed: a FAIL's counterexample is the walk's own path, and the nearest
abstract runs are ranked on the abstract graph.
`tests/refine_oracle.py` is the reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import BranchBudgetExceeded, ManifestError
from .interp import (Links, Trace, agents_of, eval_term, initial_state, read_override,
                     read_resolver_free, trace_of)
from .multiagent import OutcomeMemo, SearchTable, agent_successors
from .parser import (App, MachineDef, Term, directive_lines, located, parse_machine,
                     read_input)
from .state import State
from .values import Value, show_value


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
        """The observations, then how the run ended: a run cut by its step
        bound shows `[bound]`, as `BUDGET` names the branch budget."""
        shown = " -> ".join("(" + ", ".join(map(show_value, t)) + ")" for t in self.tuples)
        return f"{shown} [{'bound' if self.marker == 'budget' else self.marker}]"


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
# The graph


class _Node:
    """A table entry at a depth, with the runs that end on it as (marker,
    inconsistent outcome or None), its recorded children in visiting order
    as (outcome, node) and the count of recorded runs through it. A side's
    top node stands for the empty prefix; `len` counts the side's runs."""

    __slots__ = ("entry", "depth", "ends", "children", "runs")

    def __init__(self, entry: list, depth: int, ends: tuple) -> None:
        self.entry, self.depth, self.ends = entry, depth, ends
        self.children: List[Tuple[object, _Node]] = []
        self.runs = len(ends)

    def adopt(self, via, child: "_Node") -> None:
        """Record `child`, reached by the outcome `via`, if a run passes it."""
        if child.runs:
            self.children.append((via, child))
            self.runs += child.runs

    def __len__(self) -> int:
        return self.runs

    def __iter__(self) -> Iterator[Tuple[str, Links]]:
        """The top node's runs in depth-first order, as (marker, path);
        `interp.trace_of(start, path, marker)` rebuilds one."""
        stack = [(node, None) for _, node in self.children]
        while stack:
            node, path = stack.pop()
            for marker, res in node.ends:
                yield marker, path if res is None else (res, path)
            stack += [(child, (via, path)) for via, child in reversed(node.children)]


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


def enumerate_runs(machine: MachineDef, max_steps: int, budget: int,
                   start: Optional[State] = None,
                   terms: Sequence[Term] = ()) -> Tuple[_Node, bool]:
    """The recorded runs up to `max_steps`, observed through `terms`, and
    whether the branch budget cut them short to a depth-first prefix: a
    step has more than `budget` resolutions, or the side would build more
    than `budget` (state, depth) nodes past its start."""
    init = start if start is not None else initial_state(machine)
    # an entry is [state, key, observation, expansion, {depth: node}], an
    # expansion (run ends, [(progressed, successor's entry)])
    table = SearchTable()
    root = table.root(init)
    root += [observe(init, terms), None, {}]
    top = _Node([None, None, None], -1, ())  # observed as no state is
    built = -1  # the start node is not counted
    # per node being built: (node, outcome that reached it, successors left to visit)
    stack: list = [(top, None, iter([(None, root)]))]
    while stack:
        node, _, todo = stack[-1]
        depth = node.depth + 1
        for via, entry in todo:
            # a node met again is complete: the nodes being built lie on one
            # path, each a step deeper than the last
            child = entry[4].get(depth)
            if child is None:
                break
            node.adopt(via, child)
        else:
            _, via, _ = stack.pop()
            if stack:
                stack[-1][0].adopt(via, node)
            continue
        built += 1
        if built > budget:
            break
        if entry[3] is None and depth < max_steps:
            try:
                moves, stalled, bad = _successors(machine, entry[0], budget, table.memo)
            except BranchBudgetExceeded:
                break
            successors = []
            for move in moves:
                succ, new = table.successor(entry, move)
                if new:
                    succ += [observe(succ[0], terms), None, {}]
                successors.append((move.to(succ[0]), succ))
            ends = (("stalled", None),) * stalled + tuple(("inconsistent", r) for r in bad)
            entry[3] = (ends, successors)
        ends, successors = entry[3] if depth < max_steps else ((("budget", None),), ())
        child = entry[4][depth] = _Node(entry, depth, ends)
        stack.append((child, via, reversed(successors)))
    # if the budget ran out, each open node keeps the runs recorded below it
    for (node, _, _), (child, via, _) in zip(stack[-2::-1], stack[:0:-1]):
        node.adopt(via, child)
    return top, bool(stack)


# ---------------------------------------------------------------------------
# The check


def check_refinement(spec: RefinementSpec) -> RefinementVerdict:
    """Pass, BudgetExhausted, or Fail with the first failing refined run in
    depth-first order, found by walking each product node once and stopping
    at the first run end that fails."""
    a_steps, r_steps, budget = spec.bounds
    a_start = initial_state(spec.abstract, spec.abstract_init)
    r_start = initial_state(spec.refined, spec.refined_init)
    abs_runs, abs_trunc = enumerate_runs(spec.abstract, a_steps, budget, a_start,
                                         [a for _, a, _ in spec.observations])
    ref_runs, ref_trunc = enumerate_runs(spec.refined, r_steps, budget, r_start,
                                         [r for _, _, r in spec.observations])
    # counted on the graph: `len` stops at sys.maxsize, and 3^40 runs pass it
    stats = RefineStats(abs_runs.runs, ref_runs.runs, abs_trunc, ref_trunc)

    # A product node is (refined node, configuration: the recorded abstract
    # nodes whose paths collapse to the same observations, whether an
    # abstract run cut by its bound ends on a prefix of them).
    def step(key: tuple, child: _Node) -> tuple:
        node, config, cut = key
        obs = child.entry[2]
        if obs == node.entry[2]:  # a stutter step keeps the configuration
            return child, config, cut
        reached, more = set(), [a for n in config for _, a in n.children if a.entry[2] == obs]
        while more:  # then any abstract stutter steps
            a = more.pop()
            if a not in reached:
                reached.add(a)
                more += [c for _, c in a.children if c.entry[2] == obs]
        return child, frozenset(reached), cut or any(a.depth == a_steps for a in reached)

    # One depth-first walk of the product in run order, each product node
    # once: a node met again has no failing run below it, or the walk would
    # have returned, so the first failure met ends the first failing run.
    # An item is (product node, path from the refined start, parent item).
    seen, undecided = set(), False
    todo = [((ref_runs, frozenset([abs_runs]), False), None, None)]
    while todo:
        key, path, _ = item = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        node, config, cut = key
        for marker, res in node.ends:
            if config if marker == "budget" else any(
                    m == marker for a in config for m, _ in a.ends):
                continue
            # a truncated abstract run whose observations are a prefix of
            # this one could still extend to a match at larger abstract bounds
            if abs_trunc or cut:
                undecided = True
            else:
                return _fail(stats, r_start, abs_runs, item, marker, res)
        todo += [(step(key, child), path if via is None else (via, path), item)
                 for via, child in reversed(node.children)]
    if undecided or ref_trunc:
        return BudgetExhausted(stats)
    return Pass(stats)


def _fail(stats: RefineStats, r_start: State, abs_top: _Node, item: tuple,
          marker: str, res) -> Fail:
    """The FAIL for the refined run that ends at the walk's `item`."""
    path, seq = item[1], []
    while item[2] is not None:  # the top item stands for no state
        obs = item[0][0].entry[2]
        if not seq or seq[-1] != obs:
            seq.append(obs)
        item = item[2]
    observed = ObservationSeq(tuple(reversed(seq)), marker)
    counterexample = trace_of(r_start, path if res is None else (res, path), marker)
    return Fail(stats, counterexample, observed, _nearest(abs_top, observed.tuples))


def _nearest(top: _Node, observed: tuple) -> List[ObservationSeq]:
    """The first 3 abstract runs, in run order, stably sorted by the length of
    their common prefix with `observed`, ranked on the graph. The runs below
    a node reached with k observations matched, and whether all of them
    matched, rank alike on every path to it, and their first 3 are the first
    3 of the node's run ends and its children's first 3, stably sorted."""
    # (node, k, all matched) -> [(prefix length, marker, observations below)]
    ranked: Dict[tuple, list] = {}
    todo = [(top, 0, True)]
    while todo:
        node, k, full = key = todo[-1]
        if key in ranked:
            todo.pop()
            continue
        kids = []  # (child's key, its observation, or None for a stutter step)
        for _, child in node.children:
            obs = child.entry[2]
            if obs == node.entry[2]:
                kids.append(((child, k, full), None))
            elif full and observed[k:k + 1] == (obs,):
                kids.append(((child, k + 1, True), obs))
            else:
                kids.append(((child, k, False), obs))
        missing = [kid for kid, _ in kids if kid not in ranked]
        if missing:
            todo += missing
            continue
        todo.pop()
        runs = [(k, m, None) for m, _ in node.ends]
        for kid, obs in kids:  # observations below as links, so depth costs linear time
            runs += ranked[kid] if obs is None else [
                (n, m, (obs, rest)) for n, m, rest in ranked[kid]]
        ranked[key] = sorted(runs, key=lambda r: -r[0])[:3]
    nearest = []
    for _, m, rest in ranked[top, 0, True]:
        seq = []
        while rest is not None:
            obs, rest = rest
            seq.append(obs)
        nearest.append(ObservationSeq(tuple(seq), m))
    return nearest


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
    machines: Dict[object, MachineDef] = {}  # by (device, inode): each file parsed once

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
            tuple(located(where, read_override, text, machine, where)
                  for where, text in current["init"][side])
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
            path = base_dir / rest
            try:
                key = (st := path.stat()).st_dev, st.st_ino
            except OSError:
                key = path  # unreadable: `read_input` reports it
            if key not in machines:
                source = read_input(path, f"line {lineno}: cannot read", resolve=True)
                machines[key] = located(f"line {lineno}: {head} {rest}", parse_machine, source)
            current[head] = machines[key]
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
            current["init"][side].append(
                (f"line {lineno}: init_link {side} {assignment!r}", assignment))
        else:
            raise ManifestError(f"line {lineno}: unknown directive {head!r}")
    finish()
    return steps


def check_chain(manifest_path: Union[str, Path]) -> List[Tuple[str, RefinementVerdict]]:
    """Check every step of a refinement chain manifest, in order."""
    path = Path(manifest_path)
    steps = parse_manifest(read_input(path, "cannot read manifest"), path.parent)
    return [(s.name, check_refinement(s.spec)) for s in steps]
