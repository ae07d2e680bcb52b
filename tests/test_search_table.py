"""The search table: a content hash only picks candidates, exact content
decides, and only unseen successors are built."""
from conftest import MODELS, load_model
from asmweave import multiagent, refine
from asmweave.interp import SELF_LOC, export_trace_jsonl
from asmweave.multiagent import SearchTable, explore
from asmweave.parser import parse_term
from asmweave.refine import check_chain
from asmweave.state import State

# the README's termination-detection assertion on the rings
DETECTION = ("detected implies (active('m0) = false and active('m1) = false "
             "and active('m2) = false)")


def _explore(name: str, depth: int, with_assertion: bool) -> tuple:
    machine = load_model(name)
    assertion = parse_term(DETECTION, machine.sig) if with_assertion else None
    rep = explore(machine, depth, assertion=assertion)
    trace = rep.counterexample
    return (rep.states_visited, rep.complete, rep.inconsistent_branches,
            None if trace is None else (trace.digests(), export_trace_jsonl(trace)))


def _searches() -> list:
    return [_explore("ring3.asm", 12, True), _explore("ring3_mutant.asm", 12, True),
            _explore("ring5.asm", 6, False),
            [(name, type(v).__name__, v.stats.abstract_runs, v.stats.refined_runs)
             for name, v in check_chain(MODELS / "chains" / "chain_ok.refine")]]


def test_a_constant_item_hash_changes_no_result(monkeypatch):
    """Every state in one bucket: only the exact compare tells them apart."""
    want = _searches()
    assert want[0][:2] == (199, False) and want[0][3] is None
    assert len(want[1][3][0]) == 7  # a six-step counterexample
    tables = []

    class Recorded(SearchTable):
        def __init__(self) -> None:
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(multiagent, "_item_hash", lambda item: 0)
    monkeypatch.setattr(multiagent, "SearchTable", Recorded)
    monkeypatch.setattr(refine, "SearchTable", Recorded)
    assert _searches() == want
    assert len(tables) == 3 + 2 * len(want[3])  # three explores, two sides a step
    for table in tables:
        assert list(table.buckets) == [0]
        assert len(table.buckets[0]) == table.size


def test_explore_builds_only_its_unseen_successors(monkeypatch):
    """ring5 at depth 9 makes 32,208 successors; only the 3,088 states
    that are new are built."""
    built, successors = [], []
    derive, successor = State.derive, SearchTable.successor

    def counting_derive(state, content):
        # neither a probe's recording view nor an agent's view binding `self`
        if type(content) is dict and SELF_LOC not in content:
            built.append(content)
        return derive(state, content)

    def counting_successor(table, entry, move):
        successors.append(move)
        return successor(table, entry, move)

    monkeypatch.setattr(State, "derive", counting_derive)
    monkeypatch.setattr(SearchTable, "successor", counting_successor)
    rep = explore(load_model("ring5.asm"), 9)
    assert (rep.states_visited, len(successors)) == (3089, 32208)
    assert len(built) == rep.states_visited - 1
