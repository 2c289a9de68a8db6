"""Tests for the simulation-throughput benchmark harness (`repro bench`)."""

import itertools
import json

import pytest

from repro.__main__ import main
from repro.harness import bench
from repro.stats.result import SimResult


def _tiny_matrix(**overrides):
    kwargs = dict(machines=("single",), benchmarks=("gcc",),
                  config="small", length=600, warmup=200, seed=3, reps=2)
    kwargs.update(overrides)
    return bench.run_matrix(**kwargs)


# ---------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------

def test_run_cell_shape_and_medians():
    entry = bench.run_cell("single", "gcc", config="small", length=600,
                           warmup=200, seed=3, reps=3)
    assert entry["machine"] == "single"
    assert entry["benchmark"] == "gcc"
    assert entry["cycles"] > 0
    assert entry["instructions"] == 400  # length - warmup
    assert len(entry["times_s"]) == 3
    assert entry["median_s"] == sorted(entry["times_s"])[1]
    assert entry["kcps"] == pytest.approx(
        entry["cycles"] / entry["median_s"] / 1000.0, rel=1e-3)
    assert entry["ips"] == pytest.approx(
        entry["instructions"] / entry["median_s"], rel=1e-3)


def test_run_cell_times_plain_runs_only(tmp_path, monkeypatch):
    """Under an environment checkpoint interval a cell still writes no
    checkpoint, so no repetition pickles or resumes."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CHECKPOINT_INTERVAL", "100")
    entry = bench.run_cell("single", "gcc", config="small", length=600,
                           warmup=200, seed=3, reps=2)
    assert entry["instructions"] == 400
    assert not (tmp_path / ".repro_cache").exists()


def test_run_cell_rejects_zero_reps():
    with pytest.raises(ValueError):
        bench.run_cell("single", "gcc", reps=0)


def test_run_matrix_covers_every_cell_and_logs():
    lines = []
    snapshot = _tiny_matrix(machines=("single", "corefusion"),
                            log=lines.append)
    assert snapshot["schema"] == bench.SCHEMA_VERSION
    assert snapshot["matrix"]["length"] == 600
    cells = {(e["machine"], e["benchmark"])
             for e in snapshot["entries"]}
    assert cells == {("single", "gcc"), ("corefusion", "gcc")}
    assert len(lines) == 2


def _drifting(monkeypatch):
    """Build stub machines whose every run takes one more cycle than
    the run before."""
    runs = itertools.count(1)

    class Drifting:
        def run(self, trace, workload="trace", warmup=0):
            return SimResult("single", "small", workload,
                             1000 + next(runs), len(trace) - warmup)

    monkeypatch.setattr(bench, "build_machine",
                        lambda machine, base, fgstp, **options: Drifting())


def test_run_cell_fails_when_reps_disagree(monkeypatch):
    _drifting(monkeypatch)
    with pytest.raises(bench.NondeterministicCell,
                       match="single/gcc: repetition 1"):
        bench.run_cell("single", "gcc", config="small", length=600,
                       warmup=200, seed=3, reps=2)


def test_cli_bench_names_a_nondeterministic_cell(tmp_path, capsys,
                                                 monkeypatch):
    _drifting(monkeypatch)
    code = main(["bench", "--machines", "single", "--benchmarks", "gcc",
                 "--config", "small", "--length", "600", "--warmup", "200",
                 "--reps", "1", "--out", str(tmp_path)])
    assert code == 1
    assert "nondeterministic cell single/gcc" in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_simulated_cycles_identical_across_reps():
    """The simulation is deterministic: reps differ only in wall time."""
    a = bench.run_cell("single", "mcf", config="small", length=600,
                       warmup=0, seed=9, reps=2)
    b = bench.run_cell("single", "mcf", config="small", length=600,
                       warmup=0, seed=9, reps=2)
    assert a["cycles"] == b["cycles"]
    assert a["instructions"] == b["instructions"]


# ---------------------------------------------------------------------
# Snapshot I/O
# ---------------------------------------------------------------------

def test_write_and_reload_snapshot(tmp_path):
    snapshot = _tiny_matrix()
    path = bench.write_snapshot(snapshot, tmp_path)
    assert path.name.startswith("BENCH_") and path.suffix == ".json"
    assert bench.load_snapshot(path) == json.loads(
        json.dumps(snapshot))  # round-trips through JSON types


def test_previous_snapshot_picks_latest_and_excludes_current(tmp_path):
    for name in ("BENCH_20240101.json", "BENCH_20250601.json",
                 "BENCH_20260101.json"):
        (tmp_path / name).write_text("{}")
    latest = bench.previous_snapshot(tmp_path)
    assert latest.name == "BENCH_20260101.json"
    prev = bench.previous_snapshot(tmp_path, exclude=latest)
    assert prev.name == "BENCH_20250601.json"
    assert bench.previous_snapshot(tmp_path / "empty") is None


# ---------------------------------------------------------------------
# Regression comparison
# ---------------------------------------------------------------------

def _snapshot_with(ips, schema=bench.SCHEMA_VERSION, **matrix):
    doc = {"schema": schema,
           "matrix": dict(length=600, warmup=200, seed=3, reps=2),
           "entries": [{"machine": "single", "benchmark": "gcc",
                        "config": "small", "ips": ips}]}
    doc["matrix"].update(matrix)
    return doc


def test_compare_flags_only_drops_beyond_threshold():
    previous = _snapshot_with(100.0)
    assert bench.compare_snapshots(_snapshot_with(80.0), previous,
                                   threshold=0.25) == []
    regs = bench.compare_snapshots(_snapshot_with(74.0), previous,
                                   threshold=0.25)
    assert len(regs) == 1
    assert regs[0]["ratio"] == pytest.approx(0.74)
    # Improvements never flag.
    assert bench.compare_snapshots(_snapshot_with(500.0), previous) == []


def test_compare_judges_ips_not_kcps():
    """A faster simulated machine finishes in fewer cycles, so its kcps
    can fall while the simulator got faster: only ips counts."""
    previous = _snapshot_with(100.0)
    previous["entries"][0]["kcps"] = 100.0
    current = _snapshot_with(100.0)
    current["entries"][0]["kcps"] = 10.0
    assert bench.compare_snapshots(current, previous) == []
    current = _snapshot_with(10.0)
    current["entries"][0]["kcps"] = 100.0
    regs = bench.compare_snapshots(current, previous)
    assert [(r["ips"], r["previous_ips"]) for r in regs] == [(10.0, 100.0)]


def test_compare_refuses_a_schema_mismatch():
    previous = _snapshot_with(100.0, schema=1)
    current = _snapshot_with(10.0)
    assert bench.compare_snapshots(current, previous) == []
    assert bench.comparable_cells(current, previous) == 0
    assert bench.comparable_cells(current, _snapshot_with(100.0)) == 1


def test_compare_skips_mismatched_sizing_and_missing_cells():
    previous = _snapshot_with(100.0)
    resized = _snapshot_with(10.0, length=50_000)
    assert bench.compare_snapshots(resized, previous) == []
    other_cell = _snapshot_with(100.0)
    other_cell["entries"][0]["benchmark"] = "mcf"
    assert bench.compare_snapshots(other_cell, previous) == []


def test_compare_rejects_bad_threshold():
    with pytest.raises(ValueError):
        bench.compare_snapshots(_snapshot_with(1.0), _snapshot_with(1.0),
                                threshold=1.5)


def test_render_snapshot_lists_cells():
    text = bench.render_snapshot(_tiny_matrix())
    assert "single" in text and "gcc" in text


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------

_TINY = ["--machines", "single", "--benchmarks", "gcc",
         "--config", "small", "--length", "600", "--warmup", "200",
         "--reps", "1"]


def test_cli_bench_writes_snapshot_and_passes(tmp_path, capsys):
    assert main(["bench", "--out", str(tmp_path)] + _TINY) == 0
    files = list(tmp_path.glob("BENCH_*.json"))
    assert len(files) == 1
    doc = bench.load_snapshot(files[0])
    assert doc["schema"] == bench.SCHEMA_VERSION
    assert doc["entries"][0]["ips"] > 0
    assert doc["entries"][0]["kcps"] > 0
    assert "no previous snapshot" in capsys.readouterr().out


def test_cli_bench_fails_on_regression_vs_baseline(tmp_path, capsys):
    baseline = _snapshot_with(10_000_000.0, length=600, warmup=200,
                              seed=42, reps=1)
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    assert main(["bench", "--out", str(tmp_path), "--no-write",
                 "--baseline", str(baseline_path)] + _TINY) == 1
    assert "regressions" in capsys.readouterr().err


def test_cli_bench_usage_errors(tmp_path):
    assert main(["bench", "--benchmarks", "nope", "--no-write",
                 "--out", str(tmp_path)]) == 2
    assert main(["bench", "--reps", "0", "--no-write",
                 "--out", str(tmp_path)] + _TINY[:-2]) == 2
    assert main(["bench", "--threshold", "2.0", "--no-write",
                 "--out", str(tmp_path)] + _TINY) == 2
    assert main(["bench", "--baseline", str(tmp_path / "missing.json"),
                 "--no-write", "--out", str(tmp_path)] + _TINY) == 2


def test_comparable_cells_counts_matches():
    previous = _snapshot_with(100.0)
    assert bench.comparable_cells(_snapshot_with(80.0), previous) == 1
    assert bench.comparable_cells(
        _snapshot_with(80.0, length=50_000), previous) == 0
    other_cell = _snapshot_with(80.0)
    other_cell["entries"][0]["machine"] = "fgstp"
    assert bench.comparable_cells(other_cell, previous) == 0


def test_cli_bench_warns_on_incomparable_baseline(tmp_path, capsys):
    """A baseline with different sizing must say so loudly, not report
    a vacuous "no regressions"."""
    baseline = _snapshot_with(10_000_000.0, length=999_999, warmup=200,
                              seed=42, reps=1)
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    assert main(["bench", "--out", str(tmp_path), "--no-write",
                 "--baseline", str(baseline_path)] + _TINY) == 0
    assert "not comparable" in capsys.readouterr().err


def test_cli_bench_warns_on_other_schema_baseline(tmp_path, capsys):
    """A schema-1 baseline (judged on kcps) is not compared either."""
    baseline = _snapshot_with(10_000_000.0, schema=1, length=600,
                              warmup=200, seed=42, reps=1)
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    assert main(["bench", "--out", str(tmp_path), "--no-write",
                 "--baseline", str(baseline_path)] + _TINY) == 0
    assert "not comparable" in capsys.readouterr().err
