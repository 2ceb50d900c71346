"""The benchmark regression gate runs clean and actually detects regressions.

``benchmarks/run.py --check`` executes a smoke-sized benchmark pass and
compares its per-chart end-to-end numbers against the committed
``BENCH_connectivity.json`` with a tolerance band.  The smoke test pins both
directions: the tree as committed passes the gate, and a fabricated
regression (committed numbers far better than physically possible) is
actually caught -- the gate is not vacuously green.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_run_module():
    spec = importlib.util.spec_from_file_location(
        "bench_run", REPO_ROOT / "benchmarks" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_bench_check_passes_on_the_tree():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "run.py"), "--check"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "--check passed" in result.stdout


def test_check_detects_regression(tmp_path):
    bench_run = _load_run_module()
    committed = tmp_path / "BENCH_connectivity.json"
    committed.write_text(
        '{"end_to_end": {"charts": 290.0, "evaluation/current_s": 1e-9, '
        '"netpol_impact/compiled_s": 1e-9, "evaluation/store_warm_s": 1e-9}}'
    )
    record = {
        "end_to_end": {
            "charts": 4.0,
            "evaluation/current_s": 0.02,
            "netpol_impact/compiled_s": 0.01,
            "evaluation/store_warm_s": 0.01,
        }
    }
    failures = bench_run.check_against_committed(record, committed, tolerance=3.0)
    assert len(failures) == len(bench_run.CHECK_KEYS)
    assert all("ms/chart exceeds" in failure for failure in failures)


def test_check_passes_within_band(tmp_path):
    bench_run = _load_run_module()
    committed = tmp_path / "BENCH_connectivity.json"
    committed.write_text(
        '{"end_to_end": {"charts": 290.0, "evaluation/current_s": 0.29, '
        '"netpol_impact/compiled_s": 0.29, "evaluation/store_warm_s": 0.29}}'
    )
    record = {
        "end_to_end": {
            "charts": 4.0,
            "evaluation/current_s": 0.008,  # 2 ms/chart vs committed 1 ms/chart
            "netpol_impact/compiled_s": 0.004,
            "evaluation/store_warm_s": 0.004,
        }
    }
    assert bench_run.check_against_committed(record, committed, tolerance=3.0) == []


def test_check_flags_missing_keys(tmp_path):
    bench_run = _load_run_module()
    committed = tmp_path / "BENCH_connectivity.json"
    committed.write_text('{"end_to_end": {"charts": 290.0}}')
    failures = bench_run.check_against_committed(
        {"end_to_end": {"charts": 4.0}}, committed, tolerance=3.0
    )
    assert len(failures) == len(bench_run.CHECK_KEYS)


def test_netpol_gate_trips_on_fabricated_regression():
    bench_run = _load_run_module()
    on_par = {"netpol_impact/naive_s": 0.0112, "netpol_impact/compiled_s": 0.0113}
    assert bench_run.netpol_ratio_failure(on_par) is None
    regressed = {"netpol_impact/naive_s": 0.0112, "netpol_impact/compiled_s": 0.0150}
    failure = bench_run.netpol_ratio_failure(regressed)
    assert failure is not None and "compiled is 1.3393x naive" in failure
    # The old vacuous pass: both arms rounded to 0.0 s fell back to 1.0x.
    assert bench_run.netpol_ratio_failure(
        {"netpol_impact/naive_s": 0.0, "netpol_impact/compiled_s": 0.0}
    )
    assert bench_run.netpol_ratio_failure({})


def test_netpol_arm_records_unrounded_work_over_its_sample_floor():
    bench_run = _load_run_module()
    e2e = bench_run.bench_netpol_sweep(bench_run.NETPOL_SAMPLE_FLOOR, repeats=1)
    assert e2e["netpol_impact/charts"] == bench_run.NETPOL_SAMPLE_FLOOR
    assert e2e["netpol_impact/naive_s"] > 0.0
    assert e2e["netpol_impact/compiled_s"] > 0.0


def test_netpol_per_chart_band_uses_its_own_chart_count(tmp_path):
    # The netpol arm runs over its sample floor while the other end-to-end
    # keys run over the smoke sample; each is normalized by its own count.
    bench_run = _load_run_module()
    committed = tmp_path / "BENCH_connectivity.json"
    committed.write_text(
        '{"end_to_end": {"charts": 290.0, "evaluation/current_s": 0.29, '
        '"netpol_impact/compiled_s": 0.29, "evaluation/store_warm_s": 0.29}}'
    )
    record = {
        "end_to_end": {
            "charts": 4.0,
            "netpol_impact/charts": 60.0,
            "evaluation/current_s": 0.004,
            "netpol_impact/compiled_s": 0.06,  # 1 ms/chart over 60 charts
            "evaluation/store_warm_s": 0.004,
        }
    }
    assert bench_run.check_against_committed(record, committed, tolerance=3.0) == []
    record["end_to_end"]["netpol_impact/compiled_s"] = 0.24  # 4 ms/chart
    failures = bench_run.check_against_committed(record, committed, tolerance=3.0)
    assert len(failures) == 1 and failures[0].startswith("netpol_impact/compiled_s")


def test_universe_rebuild_gate_trips_on_fabricated_regression(tmp_path):
    bench_run = _load_run_module()
    key = f"universe_rebuild/pods={bench_run.REBUILD_CHECK_PODS}"
    committed = tmp_path / "BENCH_connectivity.json"
    committed.write_text(f'{{"cases": {{"{key}": 2000000.0}}}}')
    assert bench_run.committed_case_failure(key, 5_000_000, committed, 3.0) is None
    # A from-scratch rebuild (no reusable topology) costs ~10x.
    failure = bench_run.committed_case_failure(key, 20_000_000, committed, 3.0)
    assert failure is not None and "exceeds" in failure
    committed.write_text('{"cases": {}}')
    assert "missing" in bench_run.committed_case_failure(key, 1.0, committed, 3.0)


def test_matrix_sources_budget_trips_on_fabricated_regression(tmp_path):
    bench_run = _load_run_module()
    key = f"matrix_sources/compiled/pods={bench_run.REBUILD_CHECK_PODS}"
    committed = tmp_path / "BENCH_connectivity.json"
    committed.write_text(f'{{"cases": {{"{key}": 875000.0}}}}')
    assert bench_run.committed_case_failure(key, 1_490_000, committed, 3.0) is None
    # Surfaces falling back to per-object work cost ~10x the bitset engine.
    failure = bench_run.committed_case_failure(key, 9_700_000, committed, 3.0)
    assert failure is not None and failure.startswith(key) and "exceeds" in failure


def test_matrix_sources_budget_fails_on_a_missing_key(tmp_path):
    bench_run = _load_run_module()
    key = f"matrix_sources/compiled/pods={bench_run.REBUILD_CHECK_PODS}"
    committed = tmp_path / "BENCH_connectivity.json"
    # Only the other gated case is recorded: the budget must not pass.
    committed.write_text(
        f'{{"cases": {{"universe_rebuild/pods={bench_run.REBUILD_CHECK_PODS}": 1.0}}}}'
    )
    failure = bench_run.committed_case_failure(key, 1.0, committed, 3.0)
    assert failure == f"{key}: missing from the committed record"


def test_committed_record_carries_the_gated_cases():
    bench_run = _load_run_module()
    record = json.loads((REPO_ROOT / "BENCH_connectivity.json").read_text())
    for case in ("universe_rebuild", "matrix_sources/compiled"):
        assert record["cases"][f"{case}/pods={bench_run.REBUILD_CHECK_PODS}"] > 0


def _load_cases_module():
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import connectivity_cases
    finally:
        sys.path.pop(0)
    return connectivity_cases


def test_matrix_sources_budget_is_wired():
    # The --check path holds the bitset engine to an absolute budget from
    # the committed record: the bench it re-times yields the key the gate
    # reads (so it can never be vacuously green), and the smoke-sized
    # results keep both matrix arms.
    bench_run = _load_run_module()
    cases = _load_cases_module()
    fleet = cases.build_fleet(bench_run.SMOKE_FLEET_SIZES[0])
    assert cases.bench_matrix_compiled(fleet, repeats=1)["matrix_sources/compiled"] > 0
    results = cases.run_size(bench_run.SMOKE_FLEET_SIZES[0], repeats=1)
    assert results["matrix_sources/compiled"] > 0
    assert results["matrix_sources/naive"] > 0


def test_grouped_bindings_match_endpoint_controller():
    # Big fleets (> 1000 pods) bind services with the O(pods) group-by-app
    # shortcut instead of the O(services x pods) EndpointController scan.
    # Pin the equivalence just past the crossover: identical services,
    # identical backend lists, identical order.
    from repro.cluster import EndpointController

    cases = _load_cases_module()
    fleet = cases.build_fleet(1_200)
    reference = EndpointController().bind(fleet.services, fleet.pods)
    assert len(fleet.bindings) == len(reference)
    for fast, slow in zip(fleet.bindings, reference):
        assert fast.service is slow.service
        assert [b.ident for b in fast.backends] == [b.ident for b in slow.backends]


def test_small_fleets_still_use_the_endpoint_controller():
    cases = _load_cases_module()
    fleet = cases.build_fleet(240)
    from repro.cluster import EndpointController

    reference = EndpointController().bind(fleet.services, fleet.pods)
    assert [
        (b.service.name, [p.ident for p in b.backends]) for b in fleet.bindings
    ] == [(b.service.name, [p.ident for p in b.backends]) for b in reference]


def test_evaluation_and_store_gates_trip_on_fabricated_regression(tmp_path):
    # The evaluation and store arms run over their sample floor and record
    # unrounded seconds; a per-chart regression past the band still trips.
    bench_run = _load_run_module()
    floor = float(bench_run.EVALUATION_SAMPLE_FLOOR)
    committed = tmp_path / "BENCH_connectivity.json"
    committed.write_text(
        '{"end_to_end": {"charts": 290.0, "evaluation/current_s": 0.29, '
        '"netpol_impact/compiled_s": 0.29, "evaluation/store_warm_s": 0.29}}'
    )
    record = {
        "end_to_end": {
            "charts": floor,
            "evaluation/store_charts": floor,
            "evaluation/current_s": floor * 0.002,  # 2 ms/chart vs 1 ms/chart
            "netpol_impact/compiled_s": floor * 0.001,
            "evaluation/store_warm_s": floor * 0.002,
        }
    }
    assert bench_run.check_against_committed(record, committed, tolerance=3.0) == []
    record["end_to_end"]["evaluation/current_s"] = floor * 0.0031
    record["end_to_end"]["evaluation/store_warm_s"] = floor * 0.0031
    failures = bench_run.check_against_committed(record, committed, tolerance=3.0)
    assert sorted(failure.split(":")[0] for failure in failures) == [
        "evaluation/current_s",
        "evaluation/store_warm_s",
    ]


def test_store_arm_is_normalized_by_its_own_chart_count(tmp_path):
    bench_run = _load_run_module()
    committed = tmp_path / "BENCH_connectivity.json"
    committed.write_text(
        '{"end_to_end": {"charts": 290.0, "evaluation/current_s": 0.29, '
        '"netpol_impact/compiled_s": 0.29, "evaluation/store_warm_s": 0.29}}'
    )
    record = {
        "end_to_end": {
            "charts": 4.0,
            "evaluation/store_charts": 60.0,
            "evaluation/current_s": 0.004,
            "netpol_impact/compiled_s": 0.004,
            "evaluation/store_warm_s": 0.06,  # 1 ms/chart over 60 charts
        }
    }
    assert bench_run.check_against_committed(record, committed, tolerance=3.0) == []


def test_evaluation_and_store_arms_record_unrounded_work_over_the_floor():
    bench_run = _load_run_module()
    floor = bench_run.EVALUATION_SAMPLE_FLOOR
    evaluation = bench_run.bench_full_evaluation(floor, repeats=1)
    assert evaluation["charts"] >= floor
    store = bench_run.bench_store_sweep(floor, repeats=1)
    assert store["evaluation/store_charts"] >= floor
    for seconds in (
        evaluation["evaluation/current_s"],
        store["evaluation/store_off_s"],
        store["evaluation/store_warm_s"],
    ):
        assert seconds > 0.0
        # Unrounded: a millisecond-rounded figure would be a multiple of 1e-3.
        assert round(seconds, 3) != seconds
