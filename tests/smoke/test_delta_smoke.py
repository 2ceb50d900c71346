"""Delta-evaluation smoke: fast differential, gate wiring, CLI round trips.

The deep equivalence proof lives in
``tests/experiments/test_delta_evaluation.py``; this module is the
inner-loop fast path.  It pins four things end to end: a tiny delta round
is byte-identical to from-scratch, the ``--check`` no-op-ratio gate is
actually wired to numbers the delta benchmark emits (never vacuously
green), ``insidejob watch`` completes a round over an on-disk chart
directory, and ``insidejob sweep --since`` reports a delta epoch
transition over a durable store -- without a ``StoreIntegrity`` hint when
the chart set grew, since a delta round moves content by definition.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.cli import main as cli_main
from repro.experiments import DeltaEvaluator, run_full_evaluation
from repro.datasets import build_catalog
from repro.helm import dump_values
from tests.support.diffing import assert_identical, canonical_evaluation

REPO_ROOT = Path(__file__).resolve().parents[2]
SAMPLE = 3


def _tweaked(applications, index):
    import copy
    import dataclasses

    app = applications[index]
    values = copy.deepcopy(app.chart.values)
    values["deltaSmoke"] = True
    chart = dataclasses.replace(app.chart, values=values)
    out = list(applications)
    out[index] = dataclasses.replace(app, chart=chart)
    return out


def test_delta_round_matches_scratch():
    applications = build_catalog()[:SAMPLE]
    evaluator = DeltaEvaluator()
    evaluator.evaluate(applications)
    changed = _tweaked(applications, 0)
    incremental = evaluator.evaluate(changed)
    assert incremental.delta_stats["recomputed"] == 1
    scratch = run_full_evaluation(applications=changed)
    assert_identical(
        canonical_evaluation(incremental), canonical_evaluation(scratch), "smoke delta"
    )


def _load_run_module():
    spec = importlib.util.spec_from_file_location(
        "bench_run", REPO_ROOT / "benchmarks" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_delta_cases():
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import delta_cases
    finally:
        sys.path.pop(0)
    return delta_cases


def test_delta_gate_is_wired():
    # The --check path gates the no-op delta round against the full sweep:
    # the limit exists, the remeasure sample is large enough that fixed
    # costs do not dominate, and the benchmark emits the keys the gate
    # reads -- so the gate can never be vacuously green.
    bench_run = _load_run_module()
    assert bench_run.DELTA_NOOP_RATIO_LIMIT == 0.05
    assert bench_run.DELTA_SAMPLE_FLOOR >= 60
    cases = _load_delta_cases()
    results = cases.run_delta_suite(sample=4, repeats=1)
    assert results["delta/full_sweep_s"] > 0
    assert results["delta/noop_s"] >= 0
    assert "delta/noop_ratio" in results
    assert "delta/edit4_s" in results


def _write_chart_dir(root: Path, app) -> None:
    chart_dir = root / app.name
    (chart_dir / "templates").mkdir(parents=True)
    (chart_dir / "Chart.yaml").write_text(
        dump_values(app.chart.metadata.to_dict()), encoding="utf-8"
    )
    (chart_dir / "values.yaml").write_text(
        dump_values(app.chart.values), encoding="utf-8"
    )
    for template in app.chart.templates:
        (chart_dir / "templates" / template.name).write_text(
            template.source, encoding="utf-8"
        )


def test_watch_cli_completes_a_round(capsys, tmp_path):
    for app in build_catalog()[:2]:
        _write_chart_dir(tmp_path, app)
    code = cli_main(["watch", str(tmp_path), "--rounds", "1", "--interval", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "round 1: 2 charts (2 added)" in out


def test_sweep_since_reports_epoch_transition(capsys, tmp_path):
    store_dir = str(tmp_path / "store")
    code = cli_main(["sweep", "--sample", str(SAMPLE), "--store", store_dir])
    assert code == 0
    capsys.readouterr()
    code = cli_main(["sweep", "--sample", str(SAMPLE), "--since", store_dir])
    out = capsys.readouterr().out
    assert code == 0
    # Nothing changed, so the journal is not rotated: the epoch holds.
    assert "delta: epoch 1 -> 1" in out
    assert f"{SAMPLE} unchanged" in out
    assert f"store: {SAMPLE} loaded, 0 computed" in out


def test_sweep_since_over_a_grown_catalogue_prints_no_hint(capsys, tmp_path):
    store_dir = str(tmp_path / "store")
    code = cli_main(["sweep", "--sample", str(SAMPLE), "--store", store_dir])
    assert code == 0
    capsys.readouterr()
    code = cli_main(["sweep", "--sample", str(SAMPLE + 1), "--since", store_dir])
    captured = capsys.readouterr()
    assert code == 0
    # The journal identity moved with the chart set: the epoch advances,
    # which is the normal course of a delta round, not degradation.
    assert f"delta: epoch 1 -> 2; {SAMPLE} unchanged, 1 added" in captured.out
    assert "StoreIntegrity" not in captured.err
