"""The bench harness still finds every function and name it uses."""
import ast
import importlib
import sys

from conftest import MODELS, SRC, content_key, load_model
from asmweave import multiagent
from asmweave.interp import Progressed, agents_of, enumerate_steps, initial_state
from asmweave.refine import check_chain


def test_every_exported_name_resolves():
    import asmweave

    assert [name for name in asmweave.__all__ if not hasattr(asmweave, name)] == []


def test_every_bench_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    import tracing

    missing = [name for name, (module, qualname) in tracing.TARGETS.items()
               if tracing._resolve(module, qualname) is None]
    assert missing == []


def _dotted(node):
    """`a.b.c` as ["a", "b", "c"], or None for anything but names and attributes."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def test_every_name_the_bench_workloads_read_resolves():
    tree = ast.parse((SRC.parent / "bench" / "workloads.py").read_text(encoding="utf-8"))
    modules, wanted = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("asmweave."):
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("asmweave"):
            wanted.update((node.module, a.name) for a in node.names)
    assert {"cli", "interp", "multiagent", "parser"} <= set(modules)
    for node in ast.walk(tree):
        path = _dotted(node) if isinstance(node, ast.Attribute) else None
        if path and path[0] in modules:
            wanted.add((modules[path[0]], ".".join(path[1:])))
    missing = []
    for module, qualname in sorted(wanted):
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{qualname}")
    assert missing == []
    assert ("asmweave.multiagent", "Interleaving") in wanted


def test_every_bench_workload_passes_its_own_checks(monkeypatch, tmp_path):
    """One round of each workload at seed 1: every command's result must
    match the answer the benchmark checks it against."""
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    import workloads

    for name, setup in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        ops = setup(1, workdir, workloads.Loader())
        assert ops, name
        for op in ops:
            op.check(op.run())


def test_the_run_counter_sees_the_refinement_walk(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        verdicts = check_chain(MODELS / "chains" / "chain_ok.refine")
    finally:
        tracer.uninstall()
    runs = sum(v.stats.abstract_runs + v.stats.refined_runs for _, v in verdicts)
    assert runs == 32
    assert tracer.layer_metrics()["refine.runs"] == runs


def _expansion_counts(machine, depth: int) -> tuple:
    """(successors, distinct states) of a breadth-first walk to `depth`,
    each state's successors taken from `enumerate_steps`."""
    seen = {content_key(initial_state(machine))}
    frontier, successors = [initial_state(machine)], 0
    for _ in range(depth):
        next_frontier = []
        for state in frontier:
            for aid, rule in agents_of(machine):
                for res in enumerate_steps(state, machine, rule, agent=aid):
                    if isinstance(res, Progressed):
                        successors += 1
                        if content_key(res.next_state) not in seen:
                            seen.add(content_key(res.next_state))
                            next_frontier.append(res.next_state)
        frontier = next_frontier
    return successors, len(seen)


def test_the_successor_counter_sees_the_explore_walk(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    import tracing

    machine = load_model("ring3.asm")
    successors, states = _expansion_counts(machine, 12)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = multiagent.explore(machine, 12)
    finally:
        tracer.uninstall()
    assert report.states_visited == states == 199
    metrics = tracer.layer_metrics()
    assert metrics["multiagent.successors_generated"] == successors
    assert metrics["multiagent.new_state_ratio"] == (states - 1) / successors


def test_every_imported_name_is_used(monkeypatch):
    """Each name a module under `src/asmweave` imports is read in that
    module, except the names `__init__` exports through `__all__` and the
    `multiagent` re-exports the bench reads: the names `tracing.TARGETS`
    wraps there and `workloads.py` reads as `multiagent.<name>`."""
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    import asmweave
    import tracing

    bench = ast.parse((SRC.parent / "bench" / "workloads.py").read_text(encoding="utf-8"))
    exempt = {
        "__init__": set(asmweave.__all__),
        "multiagent": {qualname for module, qualname in tracing.TARGETS.values()
                       if module == "asmweave.multiagent"}
        | {path[1] for path in map(_dotted, ast.walk(bench))
           if path and len(path) == 2 and path[0] == "multiagent"},
    }
    unused = []
    for path in sorted((SRC / "asmweave").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and name not in exempt.get(path.stem, ()):
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def test_every_top_level_name_is_read(monkeypatch):
    """Each function, class and constant a module under `src/asmweave`
    defines at its top level is read somewhere in `src/asmweave`, except
    dunders, the names `__init__` exports, the names the README's Library
    block imports, the names `tracing.TARGETS` wraps, and
    `background.apply_background`, which the interpreter oracle calls."""
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    import asmweave
    import tracing

    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exempt = set(asmweave.__all__) | {"apply_background"}
    exempt |= {alias.name for node in ast.walk(ast.parse(library))
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    exempt |= {qualname.split(".")[0] for _, qualname in tracing.TARGETS.values()}
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "asmweave").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{path.name}:{node.lineno}: {name}" for name in names
                       if name not in read and name not in exempt
                       and not (name.startswith("__") and name.endswith("__"))]
    assert unread == []


def test_the_runtime_needs_only_the_standard_library():
    """The package declares no dependencies, and every module under
    `src/asmweave` imports only the standard library and its own package."""
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert "dependencies = []" in pyproject.splitlines()
    outside = []
    for path in sorted((SRC / "asmweave").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
