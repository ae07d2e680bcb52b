"""The bench harness still finds every function its per-layer wrappers wrap."""
from conftest import SRC


def test_every_bench_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    import tracing

    missing = [name for name, (module, qualname) in tracing.TARGETS.items()
               if tracing._resolve(module, qualname) is None]
    assert missing == []
