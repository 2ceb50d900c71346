"""Self-check: the benchmark notices a slower layer and only that layer.

A fixed delay is installed around ``render_chart`` (as the sweep calls it),
then the benchmark runs in-process with and without it:

* ``audit-cold`` must get slower than the ``latency_p50_ms`` bound allows
  (``charts_per_s`` is 290 over that latency), and the traced run's
  ``helm.render.self_ms`` must grow by most of the injected delay;
* ``blast-radius`` never renders a chart, so its ``latency_p50_ms`` (the
  steady ``query_p50_ms``) must stay within the same bound.

Run it from the repository root; it takes about a minute::

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps it out of the default test collection, which would
otherwise time the benchmark inside every test run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE), str(HERE.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

# Loaded by path: ``benchmarks/run.py`` is another top-level ``run``.
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

#: Seconds added to every ``render_chart`` call; 290 charts make it ~0.9 s
#: per sweep, well past any bound on a ~0.6 s sweep.
DELAY_S = 0.003
SECONDS = 3


def _bound(metric: str) -> float:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(item["bound"] for item in spec["end_to_end"] if item["name"] == metric)


def _measure(workload: str, trace: int) -> dict[str, float]:
    args = argparse.Namespace(workload=workload, seed=1, seconds=SECONDS, trace=trace)
    result = bench.run(args)
    assert result["correct"], result
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@contextlib.contextmanager
def render_delay():
    """Sleep ``DELAY_S`` before every ``render_chart`` the sweep makes."""
    from repro.experiments import evaluation

    original = evaluation.render_chart
    calls = []

    def delayed(*args, **kwargs):
        calls.append(1)
        time.sleep(DELAY_S)
        return original(*args, **kwargs)

    evaluation.render_chart = delayed
    try:
        yield calls
    finally:
        evaluation.render_chart = original


def test_render_delay_moves_audit_cold_past_its_bound():
    bound = _bound("latency_p50_ms")
    base = _measure("audit-cold", trace=0)
    base_traced = _measure("audit-cold", trace=1)
    with render_delay() as calls:
        slow = _measure("audit-cold", trace=0)
        slow_traced = _measure("audit-cold", trace=1)
    assert calls
    assert slow["latency_p50_ms"] > base["latency_p50_ms"] * (1 + bound)
    charts_per_s = 290 / (base["latency_p50_ms"] / 1e3)
    slow_charts_per_s = 290 / (slow["latency_p50_ms"] / 1e3)
    assert slow_charts_per_s < charts_per_s / (1 + bound)
    added_ms = slow_traced["helm.render.self_ms"] - base_traced["helm.render.self_ms"]
    assert added_ms > 0.5 * 290 * DELAY_S * 1e3


def test_render_delay_leaves_blast_radius_within_its_bound():
    bound = _bound("latency_p50_ms")
    base, slow = [], []
    for _ in range(3):
        base.append(_measure("blast-radius", trace=0)["latency_p50_ms"])
        with render_delay() as calls:
            slow.append(_measure("blast-radius", trace=0)["latency_p50_ms"])
        assert not calls
    assert statistics.median(slow) <= statistics.median(base) * (1 + bound)


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", __file__]))
