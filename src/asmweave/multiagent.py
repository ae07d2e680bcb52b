"""Bounded search over agent sets sharing one state.

`agent_successors` is the one state expansion: one agent's step outcomes
from a state, as its moves (`interp.Move`: update sets checked once and
split into writes and clears, not yet fired), its inconsistent branches
and whether it can stall. `SearchTable` holds one search's distinct
states, and both searches are its clients: `explore` walks it
breadth-first, and `refine.enumerate_runs` builds its graph depth-first.

The table keys each state by an incremental content hash (Zobrist, "A New
Hashing Method with Application for Game Playing", 1970): the sum of the
hashes of its (location, value) items, mod 2^64. A successor's key is its
parent's, updated by the few locations its move changes, so no successor
is hashed whole. The key only picks candidates: a successor is a state
already seen only when its content equals a candidate's exactly, so no
collision can merge two states. Only an unseen successor is built into a
`State`, and `explore` makes a `Progressed` step, its parent link, for it
alone. The item hashes are object hashes, which differ between
processes, so no output and no order depends on them.

`explore` reports the shortest trace to a state violating a safety
assertion: each frontier state carries its path as parent links
(`interp.Links`), which `interp.trace_of` turns into that trace. A machine
without agent lines is explored as the anonymous agent "", exactly as
`run` steps it, so its counterexamples replay with `run`. A counterexample
is the chain of outcomes that reached the violating state, with no second
step record.

The table also keeps the search's outcome memo, so a state is expanded
without evaluating an agent's rule when the locations that rule read hold
values already seen (dynamic dependency tracking, as in Acar, Blelloch &
Harper, "Adaptive functional programming", POPL 2002, and the verifying
traces of Mokhov, Mitchell & Peyton Jones, "Build systems à la carte",
ICFP 2018). It is sound because an agent's outcomes are a function of the
values its rule reads: a miss evaluates through `interp.enumerate_moves`
with the view's content recording every dynamic read; statics are fixed
within one command; `_probe`'s draws come from its own replay stack, and
it injects no monitored input. The memo is a decision tree per agent
over the locations its rule reads, in the order it first reads them: a
lookup takes one dict step per location read, whichever path the guards
took. States may share a path's nodes because what the rule reads next
is a function of the values it has read so far; an insertion that finds
otherwise raises rather than overwrite. A miss fires nothing: its moves
are kept, and a hit reuses them on any state. A table lives for one
search, over one machine and one branch budget, and never outside a
command.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .errors import GuardNotBoolean
# the step semantics live in interp; Interleaving, _can_progress, ma_step
# and ma_run are re-exported
from .interp import (
    SELF_LOC,
    Inconsistent,
    Interleaving,
    Links,
    Move,
    Stalled,
    Trace,
    _can_progress,
    agents_of,
    enumerate_moves,
    eval_term,
    initial_state,
    ma_run,
    ma_step,
    trace_of,
)
from .parser import MachineDef, Term
from .state import Location, State, applied
from .values import BoolV, show_value


@dataclass
class ExploreReport:
    states_visited: int
    counterexample: Optional[Trace]
    violating_state: Optional[State]
    inconsistent_branches: int
    complete: bool = False  # frontier emptied before the depth bound


# Per (agent, rule): a decision tree over the locations its rule reads, in
# the order it first reads them. A node is [location, {value: child}], the
# value None standing for an unwritten location, and a leaf is the
# outcomes: the moves (fired on no state), inconsistent branches and
# whether some branch stalls. A rule that reads nothing has a leaf for root.
Outcomes = Tuple[Tuple[Move, ...], Tuple[Inconsistent, ...], bool]
OutcomeMemo = Dict[Tuple[str, str], Union[list, Outcomes]]


def agent_successors(
    machine: MachineDef,
    state: State,
    aid: str,
    rule: str,
    budget: int,
    memo: OutcomeMemo,
) -> Outcomes:
    """One agent's steps from a state: its moves to distinct successors,
    its inconsistent resolution branches, and whether some resolution
    stalls. `memo` holds this search's outcomes; a hit returns them as they
    are, after one dict step per location the rule read. Errors are not
    cached: they end the search."""
    # an unwritten location reads as None here, and undef to the rule
    get = state.content.get
    node = memo.get((aid, rule))
    while node.__class__ is list:
        node = node[1].get(get(node[0]))
    if node is not None:
        return node
    reads: Dict[Location, None] = {}
    moves, inconsistent, stalled = [], [], False
    for res in enumerate_moves(state, machine, rule, budget, agent=aid, reads=reads):
        if isinstance(res, Move):
            moves.append(res)
        elif isinstance(res, Stalled):
            stalled = True
        else:
            inconsistent.append(res)
    if aid:  # a named agent's `self` is its own id
        reads.pop(SELF_LOC, None)
    outcomes = tuple(moves), tuple(inconsistent), stalled
    # the path of this state's values: a state that agrees with it on every
    # location read so far makes the same next read, as the rule is a
    # function of what it has read, so a path meets the tree only in nodes
    # of its own locations
    children, key = memo, (aid, rule)
    for loc in reads:
        node = children.get(key)
        if node is None:
            node = children[key] = [loc, {}]
        elif node[0] != loc:
            raise AssertionError(f"rule {rule!r} of agent {aid!r} read {loc.show()} "
                                 f"where the outcome memo holds another path")
        children, key = node[1], get(loc)
    if key in children:
        raise AssertionError(f"rule {rule!r} of agent {aid!r} ended its reads where the "
                             f"outcome memo holds another path")
    children[key] = outcomes
    return outcomes


# The hash of one (location, value) item. A state's key is the sum of its
# items' hashes, mod 2^64.
_item_hash = hash
_MASK = (1 << 64) - 1


class SearchTable:
    """One search's distinct states and its outcome memo. Each state has an
    entry, a list `[state, key, ...]` to which the client appends its own
    fields; `buckets` maps a key to the entries holding it. `deltas` keeps,
    per move, the hash its writes add and the locations it touches."""

    __slots__ = ("buckets", "memo", "deltas", "size")

    def __init__(self) -> None:
        self.buckets: Dict[int, List[list]] = {}
        self.memo: OutcomeMemo = {}
        self.deltas: Dict[Move, Tuple[int, Tuple[Location, ...]]] = {}
        self.size = 0

    def root(self, state: State) -> list:
        """The entry of the search's start state, its key hashed whole."""
        key = sum(map(_item_hash, state.content.items())) & _MASK
        entry = [state, key]
        self.buckets[key] = [entry]
        self.size = 1
        return entry

    def successor(self, entry: list, move: Move) -> Tuple[list, bool]:
        """The entry of the state `move` leads to from `entry`'s, and whether
        it is new. Only a new state is built."""
        delta = self.deltas.get(move)
        if delta is None:
            delta = self.deltas[move] = (sum(map(_item_hash, move.writes.items())),
                                         (*move.writes, *move.clears))
        gain, touched = delta
        state = entry[0]
        content = state.content
        get = content.get
        key = entry[1] + gain
        for loc in touched:
            old = get(loc)
            if old is not None:
                key -= _item_hash((loc, old))
        key &= _MASK
        after = applied(content, move.writes, move.clears)
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = []
        else:
            for known in bucket:
                if known[0].content == after:
                    return known, False
        found = [state.derive(after), key]
        bucket.append(found)
        self.size += 1
        return found, True


def _check_assertion(assertion: Term, state: State) -> bool:
    v = eval_term(assertion, state)
    if not isinstance(v, BoolV):
        raise GuardNotBoolean(f"assertion evaluated to {show_value(v)}")
    return v.b


def explore(
    machine: MachineDef,
    depth: int,
    branch_budget: int = 10_000,
    assertion: Optional[Term] = None,
    start: Optional[State] = None,
) -> ExploreReport:
    """Breadth-first search over all interleavings and resolutions.

    States are deduplicated by their exact content through a SearchTable.
    A move writes only controlled locations, so within one search the rest
    of the content is that of the start state, and equal content means
    equal controlled content. The first violation found is the shortest,
    by BFS order.
    """
    agents = agents_of(machine)
    init = start if start is not None else initial_state(machine)
    table = SearchTable()
    inconsistent = 0

    def violation(links: Links) -> ExploreReport:
        trace = trace_of(init, links, "violation")
        return ExploreReport(table.size, trace, trace.final_state, inconsistent)

    # (table entry, parent links)
    frontier: List[Tuple[list, Links]] = [(table.root(init), None)]
    if assertion is not None and not _check_assertion(assertion, init):
        return violation(None)
    for _ in range(depth):
        if not frontier:
            break
        next_frontier: List[Tuple[list, Links]] = []
        for entry, links in frontier:
            for aid, rule in agents:
                moves, bad, _ = agent_successors(machine, entry[0], aid, rule, branch_budget,
                                                 table.memo)
                inconsistent += len(bad)
                for move in moves:
                    found, new = table.successor(entry, move)
                    if not new:
                        continue
                    path = (move.to(found[0]), links)
                    if assertion is not None and not _check_assertion(assertion, found[0]):
                        return violation(path)
                    next_frontier.append((found, path))
        frontier = next_frontier
    return ExploreReport(table.size, None, None, inconsistent, complete=not frontier)
