"""CLI smoke: ``insidejob sweep`` degrades gracefully on a damaged store.

The contract under test mirrors ``actionable_message`` for cluster errors:
a corrupt or version-skewed store must never surface as a traceback or a
non-zero exit -- the sweep recomputes the affected charts, prints its
normal report, and emits exactly one ``StoreIntegrity`` hint on stderr
pointing at ``tools/store_gc.py``.  Resume runs through the same door.
"""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.store import ResultStore

SAMPLE = 4


def run_sweep(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli_main(["sweep", "--sample", str(SAMPLE), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_without_store(capsys):
    code, out, err = run_sweep(capsys)
    assert code == 0
    assert "Total" in out
    assert "store:" not in out  # no store armed -> no store accounting


def test_sweep_cold_then_warm(capsys, tmp_path):
    store_dir = str(tmp_path / "store")
    code, out, _ = run_sweep(capsys, "--store", store_dir)
    assert code == 0
    assert f"store: 0 loaded, {SAMPLE} computed" in out
    code, out, err = run_sweep(capsys, "--store", store_dir)
    assert code == 0
    assert f"store: {SAMPLE} loaded, 0 computed" in out
    assert "StoreIntegrity" not in err  # healthy store stays silent


def test_sweep_resume_continues_quietly(capsys, tmp_path):
    store_dir = str(tmp_path / "store")
    run_sweep(capsys, "--store", store_dir)
    code, out, err = run_sweep(capsys, "--resume", store_dir)
    assert code == 0
    assert f"store: {SAMPLE} loaded, 0 computed" in out


def test_resume_against_a_different_catalogue_hints(capsys, tmp_path):
    store_dir = str(tmp_path / "store")
    run_sweep(capsys, "--store", store_dir)
    code = cli_main(["sweep", "--sample", str(SAMPLE - 1), "--resume", store_dir])
    err = capsys.readouterr().err
    assert code == 0
    assert err.count("StoreIntegrity") == 1
    assert "journal identity mismatch" in err


@pytest.mark.parametrize("damage", ["truncate", "garbage"])
def test_sweep_over_corrupt_store_hints_and_recomputes(capsys, tmp_path, damage):
    store_dir = tmp_path / "store"
    run_sweep(capsys, "--store", str(store_dir))
    # Damage every entry on disk: a torn write and outright garbage both
    # must be detected by the verified read, never unpickled or served.
    for path in ResultStore(store_dir).entries():
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2] if damage == "truncate" else b"\x00junk")
    code, out, err = run_sweep(capsys, "--store", str(store_dir))
    assert code == 0  # never a traceback, never a failure
    assert "Total" in out  # the full report still prints
    assert f"store: 0 loaded, {SAMPLE} computed" in out
    assert err.count("StoreIntegrity") == 1  # exactly one actionable hint
    assert "store_gc.py" in err
    # The corrupt entries were evicted and republished: warm again.
    code, out, err = run_sweep(capsys, "--store", str(store_dir))
    assert code == 0
    assert f"store: {SAMPLE} loaded, 0 computed" in out
    assert "StoreIntegrity" not in err


def test_since_over_corrupt_store_still_hints(capsys, tmp_path):
    store_dir = tmp_path / "store"
    run_sweep(capsys, "--store", str(store_dir))
    for path in ResultStore(store_dir).entries():
        path.write_bytes(b"\x00junk")
    code, out, err = run_sweep(capsys, "--since", str(store_dir))
    assert code == 0
    assert f"{SAMPLE} changed" in out
    assert err.count("StoreIntegrity") == 1
