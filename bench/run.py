"""asmweave benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload explore-ring --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the program is imported from its
`src/` directory, and nothing needs building. One client in one process
repeats the workload's set-up and then its round of commands, issued one
after another, until `--seconds` have passed. Every command's output is
checked against a known answer. See README.md beside this file.

With `--trace 0` the run reports the end-to-end metrics listed in
BENCHMARK.json, every time in them gauged: stated at a reference host
speed by a fixed piece of work timed just before and just after it. With
`--trace 1` it alternates untraced and traced rounds and reports the
per-layer metrics, counted on the first traced round and timed as the
median over traced rounds, plus the tracing overhead.

Every metric is printed by name and unit, followed by one JSON line with
`correct`, `attempted`, `failed` and `metrics`. The full record, stamped
with git sha, Python version, processor count, load average and seed, is
written to `.bench_out/`, with the traced run's spans beside it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TAIL_MARGIN = 10  # samples that must lie beyond the reported tail percentile


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _git_sha() -> str:
    """HEAD's commit from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tail(n: int) -> int:
    """Index into n sorted samples of the highest percentile up to p99
    that keeps TAIL_MARGIN samples beyond it, never below the median."""
    return max(min(math.ceil(0.99 * n) - 1, n - 1 - TAIL_MARGIN), n // 2)


class Loop:
    """One client issuing commands one after another, and their tally."""

    def __init__(self) -> None:
        self.by_label = {}
        self.attempted = 0
        self.failures = []
        self.gauges = []

    def gauge(self) -> None:
        """Take a host gauge reading."""
        self.gauges.append(host_gauge())

    def rescale(self, seconds: float) -> float:
        """State a time measured since the last gauge reading at the
        reference host speed: take a reading now, outside the timing, and
        scale by the mean of the readings just before and just after. Host
        spikes as short as one command move both readings, while the two
        readings average out the gauge's own jitter."""
        before = self.gauges[-1]
        self.gauge()
        return seconds * 2 * GAUGE_REF_S / (before + self.gauges[-1])

    def commands(self, ops, tracer=None, gauged=False):
        """Issue every command once; return (results, command latencies).
        With `gauged`, a gauge reading was taken just before, and each
        latency is rescaled."""
        latencies, results = [], []
        for op in ops:
            if tracer is not None:
                tracer.request += 1
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                results.append((op, op.run()))
            except Exception as e:  # an unexpected error is a failed command
                self.failures.append(f"{op.label}: {type(e).__name__}: {e}")
            dt = time.perf_counter() - t0
            if gauged:
                dt = self.rescale(dt)
            latencies.append(dt)
            self.by_label.setdefault(op.label, []).append(dt)
        return results, latencies

    def check(self, results) -> int:
        """Check every result against its known answer; return the items."""
        items = 0
        for op, result in results:
            try:
                items += op.check(result)
            except Exception as e:  # a wrong answer, or a check that cannot run
                self.failures.append(f"{op.label}: {type(e).__name__}: {e}")
        return items


# The host gauge: a fixed piece of pure-Python work shaped like the
# program's own (a recursive evaluator over small objects, dict lookups by
# string, integer arithmetic), independent of the program under test. On a
# shared host other tenants slow this process by up to 60% for minutes at a
# time, longer than a run; the gauge slows with it, so a command's time
# divided by the gauge times taken around it measures the program and not
# the host.
class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b


def _tree(depth: int, i: int):
    if depth == 0:
        return f"x{i % 5}" if i % 2 else i % 7
    return _Node("+*-^"[i % 4], _tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


def _eval(t, env):
    if type(t) is str:
        return env[t]
    if type(t) is int:
        return t
    a, b = _eval(t.a, env), _eval(t.b, env)
    op = t.op
    if op == "+":
        return a + b
    if op == "*":
        return a * b % 1009
    if op == "-":
        return a - b
    return a if a > b else b


_GAUGE_TREE = _tree(7, 1)
_GAUGE_ENVS = [{f"x{j}": k * j % 11 for j in range(5)} for k in range(64)]
# The reference host speed: gauged times are in seconds as a host on which
# the gauge takes this long would show them. On the host this benchmark was
# built on (2-core 2.1 GHz Xeon, Python 3.11) the gauge took 1.5 ms when
# quiet and 2.9 ms when busy. The value is fixed, so that gauged times
# compare across commits.
GAUGE_REF_S = 0.0025


def host_gauge() -> float:
    """Time of one fixed run of the gauge, in seconds. It creates no
    objects the garbage collector tracks, so it does not move the
    program's collections."""
    t0 = time.perf_counter()
    total = 0
    for env in _GAUGE_ENVS:
        total += _eval(_GAUGE_TREE, env)
    return time.perf_counter() - t0


def _until(seconds: float, step) -> None:
    """Call step() at least once, then again as long as a call as slow as
    the last one would still end before the deadline."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def end_to_end(setup, loader, seed, workdir, seconds, loop):
    """Repeat set-up and a round of commands; every time is gauged.

    The first round warms caches and is left out of the statistics; the
    rest repeat the same commands on the same inputs."""
    setups, rounds = [], []

    def step() -> None:
        loop.gauge()
        load = loader()
        ops = setup(seed, workdir, load)
        setups.append(loop.rescale(load.seconds))
        results, latencies = loop.commands(ops, gauged=True)
        rounds.append((sum(latencies), loop.check(results), latencies))

    _until(seconds, step)
    while len(rounds) < 2:
        step()
    timed = rounds[1:]
    lat = sorted(d for _, _, latencies in timed for d in latencies)
    idx = _tail(len(lat))
    metrics = {
        "setup_s": statistics.median(setups[1:]),
        "wall_s": statistics.median(busy for busy, _, _ in timed),
        "items_per_s": statistics.median(items / busy for busy, items, _ in timed),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p99_ms": 1000 * lat[idx],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {"rounds": len(rounds), "rounds_timed": len(timed),
               "commands_per_round": len(timed[0][2]),
               "latency_samples": len(lat),
               "op_p99_ms_percentile": round(100.0 * (idx + 1) / len(lat), 2),
               "gauge_ref_ms": 1000 * GAUGE_REF_S,
               "host_gauge_ms_median": 1000 * statistics.median(loop.gauges),
               "command_median_ms": {k: round(1000 * statistics.median(v[1:] or v), 3)
                                     for k, v in loop.by_label.items()}}
    return metrics, details


def per_layer(setup, loader, seed, workdir, seconds, loop, spans_path):
    """Alternate untraced and traced rounds (set-up included in each).
    Set-up and commands are gauged as in the untraced run, so that the
    overhead compares rounds at one host speed."""
    tracer = tracing.Tracer()
    plain, traced, samples = [], [], []

    def unit() -> None:
        loop.gauge()
        load = loader()
        if len(plain) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                ops = setup(seed, workdir, load)
                spent = loop.rescale(load.seconds)
                results, latencies = loop.commands(ops, tracer, gauged=True)
            finally:
                tracer.uninstall()
            traced.append(spent + sum(latencies))
            loop.check(results)  # outside the trace: checking is not the program's work
            samples.append(tracer.layer_metrics())
            if len(samples) == 1:
                tracer.write_spans(spans_path)
        else:
            ops = setup(seed, workdir, load)
            spent = loop.rescale(load.seconds)
            results, latencies = loop.commands(ops, gauged=True)
            plain.append(spent + sum(latencies))
            loop.check(results)

    _until(seconds, unit)
    while len(traced) < 2:  # counts are compared between two traced rounds
        unit()
    first = samples[0]
    repeat = [k for k in tracing.EXACT if k in first
              and any(s[k] != first[k] for s in samples[1:])]
    metrics = {k: (statistics.median(s[k] for s in samples) if k.endswith("_s") else v)
               for k, v in first.items()}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain[1:])
    details = {"traced_rounds": len(traced), "untraced_rounds": len(plain),
               "missing_targets": tracer.missing, "counts_not_repeated": repeat,
               "spans": str(spans_path.relative_to(ROOT))}
    return metrics, details, not repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "asmweave" / "__init__.py").is_file():
        return _fail(f"no asmweave sources under {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return _fail(f"cannot read BENCHMARK.json: {e}")
    sys.path.insert(0, str(SRC))
    import asmweave

    if not Path(asmweave.__file__).resolve().is_relative_to(SRC):
        return _fail(f"asmweave was imported from {asmweave.__file__}, not {SRC}")
    import workloads

    setup = workloads.WORKLOADS.get(args.workload)
    if setup is None:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    stamp = {"git": _git_sha(), "python": platform.python_version(),
             "nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg()),
             "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace}
    print(f"asmweave benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("stamp: " + json.dumps(stamp))
    print("closed loop: 1 client in 1 process, each command issued after the previous ends")

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    loop = Loop()
    repeat_ok = True
    try:
        if args.trace:
            listed = spec["per_layer"]
            metrics, details, repeat_ok = per_layer(
                setup, workloads.Loader, args.seed, workdir, args.seconds, loop,
                OUT / f"{tag}.spans.jsonl")
        else:
            listed = spec["end_to_end"]
            metrics, details = end_to_end(setup, workloads.Loader, args.seed, workdir,
                                          args.seconds, loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(loop.failures)
    for failure in loop.failures[:20]:
        print(f"FAILED {failure}")
    for k, v in details.items():
        print(f"{k}: {v}")
    print(f"ops_failed_ratio = {failed / max(loop.attempted, 1):.6g} ratio "
          f"({failed} of {loop.attempted} commands)")
    reported = {}
    for m in listed:
        if m["name"] not in metrics:
            print(f"{m['name']}: not measured")
            continue
        value = metrics[m["name"]]
        reported[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']} ({m['better']} is better)")
    correct = failed == 0 and repeat_ok and loop.attempted > 0
    record = {"stamp": stamp, "correct": correct, "attempted": loop.attempted,
              "failed": failed, "failures": loop.failures, "details": details,
              "metrics": reported}
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
