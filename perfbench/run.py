"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload audit-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` is the separate traced run: every other operation runs with
spans around the program's layer functions (see ``tracing.py``), and the
run prints the per-layer metrics, the tracing overhead and the residual
no layer covers.  The spans are written to
``perfbench/.work/trace-<workload>-seed<seed>.json``.

The last line of standard output is the result object; the lines before
it are a human-readable report, the host facts and the seed.  The program
is imported from ``src/`` next to this directory; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_DIR = HERE / ".work"

#: The probe's time on the reference host (the 2-core box the bounds were
#: set on, uncontended).  End-to-end times are scaled by it; see ``probe``.
PROBE_REFERENCE_NS = 1_000_000

#: Layer self-time metrics: metric name -> span name.
SELF_TIME_METRICS = {
    "helm.render.self_ms": "helm.render",
    "helm.template_emit_ms": "helm.template_emit",
    "helm.assemble_ms": "helm.assemble",
    "k8s.intern_ms": "k8s.intern",
    "cluster.observe_ms": "cluster.observe",
    "cluster.matrix_build_ms": "cluster.matrix_build",
    "cluster.universe_build_ms": "cluster.universe_build",
    "cluster.surface_ms": "cluster.surface",
    "core.rules_ms": "core.rules",
    "core.m4_ms": "core.m4",
    "store.read_ms": "store.read",
    "store.write_ms": "store.write",
    "store.journal_ms": "store.journal",
    "experiments.delta.self_ms": "experiments.delta",
    "experiments.sweep.self_ms": "experiments.sweep",
}


def probe() -> int:
    """Wall time (ns) of a fixed pure-Python task that runs no program code.

    The benchmark's host is shared: its speed drifts by up to 2x over tens
    of seconds, in phases longer than a run.  Every timed call is bracketed
    by two probes, and its time is scaled by ``PROBE_REFERENCE_NS`` over
    their mean, which gives the time the call would take on the reference
    host.  The task mixes dict building, sorting, string joins and hashing,
    as the program's own code does, so a slow phase slows both alike.

    The collector is off during the probe only: a collection landing in it
    would cost time in proportion to what the program keeps alive, and a
    program that kept more objects would then read as faster.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        acc = 0
        for _ in range(40):
            table = {f"k{i}": i for i in range(60)}
            ranked = sorted(table.items(), key=lambda item: -item[1])
            acc += len("-".join(key for key, _ in ranked[:20]))
            acc += hash(tuple(table.values())) & 1
        return perf_counter_ns() - start
    finally:
        if gc_was_enabled:
            gc.enable()


#: What one ``os.fsync`` is charged in the reference-host times: the
#: per-call median on the reference host, where 14 ``ci-recheck`` runs
#: averaged 0.16-0.57 ms per fsync (median 0.19 ms).  See ``timed``.
FSYNC_REFERENCE_NS = 200_000


@contextlib.contextmanager
def fsync_clock():
    """Count the ``os.fsync`` calls made while the block runs, and their wall time.

    Yields a two-element list: [calls, nanoseconds] so far.
    """
    spent = [0, 0]
    original = os.fsync

    def clocked(fd):
        start = perf_counter_ns()
        try:
            return original(fd)
        finally:
            spent[0] += 1
            spent[1] += perf_counter_ns() - start

    os.fsync = clocked
    try:
        yield spent
    finally:
        os.fsync = original


@dataclass
class Timing:
    """One timed call: wall time, its fsyncs, and the reference-host time."""

    wall_ns: int
    fsyncs: int
    fsync_ns: int
    reference_ns: float


def timed(fn):
    """(result, ``Timing``) of ``fn()``, between two probes.

    The time outside ``os.fsync`` is scaled to the reference host by the
    probes (see ``probe``).  An fsync waits on the disk, which the CPU
    probe says nothing about, and whose latency on a shared host moves
    by up to 3x between runs minutes apart; so each fsync is charged
    ``FSYNC_REFERENCE_NS`` instead of its wall time.  Adding or removing
    an fsync moves the reference time; the disk's speed of the moment
    does not.
    """
    before = probe()
    with fsync_clock() as spent:
        start = perf_counter_ns()
        result = fn()
        elapsed = perf_counter_ns() - start
    after = probe()
    calls, fsync_ns = spent
    scale = 2 * PROBE_REFERENCE_NS / (before + after)
    reference = (elapsed - fsync_ns) * scale + calls * FSYNC_REFERENCE_NS
    return result, Timing(elapsed, calls, fsync_ns, reference)


#: statfs(2) magic numbers of the filesystems a store is likely to sit on.
_FS_MAGIC = {
    0xEF53: "ext4",
    0x01021994: "tmpfs",
    0x58465342: "xfs",
    0x9123683E: "btrfs",
    0x794C7630: "overlayfs",
    0x6969: "nfs",
    0x65735546: "fuse",
    0x2FC12FC1: "zfs",
}


def filesystem_type(path: Path) -> str:
    """The filesystem holding ``path``, from ``statfs(2)``'s ``f_type``."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        buffer = ctypes.create_string_buffer(256)
        if libc.statfs(os.fsencode(path), buffer) != 0:
            return "unknown"
    except (OSError, AttributeError):
        return "unknown"
    magic = ctypes.c_long.from_buffer(buffer).value & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def host_facts(store_dir: Path) -> dict:
    """What a reader needs to compare records made on different machines."""
    import numpy
    import yaml

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "store_fs": filesystem_type(store_dir),
        "probe_ms": statistics.median(probe() for _ in range(31)) / 1e6,
        "gc": "enabled" if gc.isenabled() else "disabled",
    }


def quantile(samples: list[float], q: int) -> float:
    """The ``q``-th percentile of ``samples`` (inclusive interpolation)."""
    if len(samples) == 1:
        return float(samples[0])
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def global_counters() -> dict[str, int]:
    """The process-wide cache counters the traced run reads around operations."""
    from repro.helm import shared_render_cache, skeleton_parse_count, template_parse_count
    from repro.k8s import intern_stats

    cache = shared_render_cache().stats()
    interned = intern_stats()
    return {
        "render_hits": cache["hits"],
        "render_misses": cache["misses"],
        "skeleton_parses": skeleton_parse_count(),
        "template_parses": template_parse_count(),
        "intern_hits": interned["hits"],
        "intern_misses": interned["misses"],
    }


@dataclass
class Measurement:
    """What one run's operation loop observed."""

    untraced: list[Timing] = field(default_factory=list)
    traced_ns: list[int] = field(default_factory=list)
    traced_ops: set[int] = field(default_factory=set)
    #: The first ``counter_ops`` traced operations and their counter sums.
    window_ops: set[int] = field(default_factory=set)
    window: dict[str, float] = field(default_factory=dict)
    operations: int = 0
    attempted: int = 0
    failed: int = 0

    def count(self, key: str, value: float) -> None:
        self.window[key] = self.window.get(key, 0) + value


def set_up(workloads, name: str, seed: int, tracer):
    """Set the workload up ``setup_repeats`` times; keep the last one.

    Each set-up starts from a fresh workload object, cold in-process
    caches and a collected heap, so the repeats do the same work.  Returns
    (workload, one ``Timing`` per set-up).
    """
    timings = []
    workload = None
    while workload is None or len(timings) < workload.setup_repeats:
        if workload is not None:
            workload.close()
        workload = workloads.make(name, WORK_DIR)
        workloads.clear_caches()
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            _, timing = timed(lambda: workload.setup(seed))
        finally:
            if tracer is not None:
                tracer.uninstall()
        timings.append(timing)
    return workload, timings


def measure(workload, tracer, seconds: float) -> Measurement:
    """Run closed-loop operations for ``seconds``; check every output.

    With a tracer, odd operations are traced and even ones run untouched.
    A traced run makes at least ``2 * counter_ops + 1`` operations, so the
    counter window is always full.
    """
    m = Measurement()
    min_ops = 2 * workload.counter_ops + 1 if tracer is not None else 2
    deadline = perf_counter_ns() + int(seconds * 1e9)
    op = 0
    while op < min_ops or perf_counter_ns() < deadline:
        inputs = workload.prepare(op)
        traced = tracer is not None and op % 2 == 1
        in_window = traced and len(m.window_ops) < workload.counter_ops
        before = global_counters() if in_window else {}
        hooks = {}
        m.attempted += 1
        try:
            if traced:
                tracer.begin_op(op)
                try:
                    output = workload.execute(inputs)
                finally:
                    elapsed, hooks = tracer.end_op()
                    m.traced_ops.add(op)
            else:
                output, timing = timed(lambda: workload.execute(inputs))
        except Exception:
            m.failed += 1
            print(f"operation {op} raised:\n{traceback.format_exc()}", file=sys.stderr)
            op += 1
            continue
        if traced:
            m.traced_ns.append(elapsed)
        else:
            m.untraced.append(timing)
        try:
            m.failed += workload.check(op, inputs, output)
        except Exception:
            m.failed += 1
            print(f"check of operation {op} raised:\n{traceback.format_exc()}", file=sys.stderr)
        if in_window:
            m.window_ops.add(op)
            for key, value in global_counters().items():
                m.count(key, value - before[key])
            for label, deltas in hooks.items():
                for key, value in deltas.items():
                    m.count(f"{label}.{key}", value)
            for key, value in workload.counters(inputs, output).items():
                m.count(key, value)
        op += 1
    m.operations = op
    return m


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(tracer, m: Measurement) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    Times are self times per traced operation, so the layers plus
    ``trace.residual_ms`` add up to ``trace.wall_ms``.  Counts and ratios
    come from the first ``counter_ops`` traced operations only, which are
    the same operations in every run of one seed.
    """
    from tracing import ROOT, SETUP_OP

    self_ns, _ = tracer.self_times(m.traced_ops)
    _, window_calls = tracer.self_times(m.window_ops)
    ops = max(len(m.traced_ops), 1)
    counted = max(len(m.window_ops), 1)
    w = m.window.get
    metrics = {
        name: (self_ns.get(span, 0) / ops / 1e6, "ms")
        for name, span in SELF_TIME_METRICS.items()
    }
    builds = tracer.durations("datasets.build", SETUP_OP)
    metrics.update(
        {
            "helm.render_cache.hit_ratio": (
                _ratio(w("render_hits", 0), w("render_hits", 0) + w("render_misses", 0)),
                "ratio",
            ),
            "helm.skeleton_parses": (w("skeleton_parses", 0) / counted, "count"),
            "helm.template_parses": (w("template_parses", 0) / counted, "count"),
            "k8s.intern.hit_ratio": (
                _ratio(w("intern_hits", 0), w("intern_hits", 0) + w("intern_misses", 0)),
                "ratio",
            ),
            "cluster.observe.memo_hit_ratio": (
                _ratio(w("observe_memo.hits", 0),
                       w("observe_memo.hits", 0) + w("observe_memo.misses", 0)),
                "ratio",
            ),
            "store.reads": (window_calls.get("store.read", 0) / counted, "count"),
            "store.writes": (window_calls.get("store.write", 0) / counted, "count"),
            "store.corruptions": (w("store.corruptions", 0) / counted, "count"),
            "experiments.delta.reuse_ratio": (
                _ratio(w("delta_reused", 0), w("delta_charts", 0)), "ratio"
            ),
            "datasets.build_ms": (statistics.median(builds) / 1e6 if builds else 0.0, "ms"),
            "trace.wall_ms": (sum(m.traced_ns) / ops / 1e6, "ms"),
            "trace.residual_ms": (self_ns.get(ROOT, 0) / ops / 1e6, "ms"),
            "trace.overhead_ratio": (
                statistics.median(m.traced_ns)
                / statistics.median(t.wall_ns for t in m.untraced)
                if m.traced_ns and m.untraced
                else 0.0,
                "ratio",
            ),
        }
    )
    return metrics


def run(args: argparse.Namespace) -> dict:
    """Set up, measure and check one workload; return the result object."""
    import workloads
    from tracing import Tracer

    WORK_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    facts = host_facts(WORK_DIR)
    workload, setups = set_up(
        workloads, args.workload, args.seed, tracer
    )
    try:
        m = measure(workload, tracer, args.seconds)
        checks, check_failures = workload.finish()
    finally:
        workload.close()
    attempted = m.attempted + checks
    failed = m.failed + check_failures
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": facts,
        "operations": m.operations,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "wall_setup_s": [t.wall_ns / 1e9 for t in setups],
        "setup_fsyncs": [t.fsyncs for t in setups],
        "setup_fsync_wall_s": [t.fsync_ns / 1e9 for t in setups],
    }
    if tracer is None:
        reference = [t.reference_ns for t in m.untraced]
        wall = [t.wall_ns for t in m.untraced]
        metrics = {
            "setup_s": (statistics.median(t.reference_ns for t in setups) / 1e9, "s"),
            "latency_p50_ms": (quantile(reference, 50) / 1e6, "ms"),
            "latency_p90_ms": (quantile(reference, 90) / 1e6, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["samples"] = len(m.untraced)
        report["wall_p50_ms"] = quantile(wall, 50) / 1e6
        report["wall_p90_ms"] = quantile(wall, 90) / 1e6
        report["fsyncs_p50"] = quantile([t.fsyncs for t in m.untraced], 50)
        report["fsync_wall_p50_ms"] = quantile([t.fsync_ns for t in m.untraced], 50) / 1e6
    else:
        metrics = layer_metrics(tracer, m)
        report["samples"] = {"traced": len(m.traced_ns), "untraced": len(m.untraced)}
        report["counter_ops"] = len(m.window_ops)
        trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path, {"workload": args.workload, "seed": args.seed})
        report["trace_file"] = str(trace_path.relative_to(HERE.parent))
    print_report(report, metrics)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def print_report(report: dict, metrics: dict) -> None:
    """The human-readable lines printed before the result object."""
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print("host " + json.dumps(report["host"], sort_keys=True))
    print(f"operations {report['operations']}, samples {report['samples']}, "
          f"failed_share {report['failed']}/{report['attempted']} = {report['failed_share']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6f} {unit}")
    if "latency_p50_ms" in metrics:
        p50, p90 = metrics["latency_p50_ms"][0], metrics["latency_p90_ms"][0]
        wall50, wall90 = report["wall_p50_ms"], report["wall_p90_ms"]
        print(f"  (reference-host times; wall p50 {wall50:.6f} ms, p90 {wall90:.6f} ms)")
        if report["workload"].startswith("audit"):
            print(f"  {'charts_per_s':<34} {290e3 / p50:>14.6f} 1/s (290 charts; "
                  f"wall {290e3 / wall50:.6f})")
        else:
            name = "query" if report["workload"] == "blast-radius" else "round"
            print(f"  {name + '_p50_ms':<34} {p50:>14.6f} ms")
            print(f"  {name + '_p90_ms':<34} {p90:>14.6f} ms")
    else:
        wall = metrics["trace.wall_ms"][0]
        covered = sum(metrics[name][0] for name in SELF_TIME_METRICS)
        covered += metrics["trace.residual_ms"][0]
        print(f"  layers + residual = {covered:.6f} ms of {wall:.6f} ms traced wall; "
              f"trace file {report['trace_file']}")
    print("record " + json.dumps(report, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing (no {SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
