"""Corruption and structured-failure handling in the sweep engine.

Corrupt ``.repro_cache`` entries (both tiers — cached results and cached
traces) must be detected, quarantined for inspection, and regenerated;
a simulation that dies with a structured :class:`SimulationError` must
leave its partial statistics and a replayable crash dump on the
:class:`JobFailure` record while the rest of the sweep continues.
"""

import json
import os
from pathlib import Path

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.parallel import ExperimentEngine, make_job
from repro.integrity.errors import SimulationError
from repro.integrity.forensics import DEFAULT_CRASH_DIR, load_crash_dump
from repro.uarch.params import core_config
from repro.workloads.suite import DiskTraceCache

LENGTH, WARMUP = 1500, 500


def _jobs(machines=("single",), benchmark="gcc", seed=1):
    base = core_config("small")
    config = ExperimentConfig(trace_length=LENGTH, warmup=WARMUP,
                              seed=seed)
    return [make_job(machine, benchmark, base, config)
            for machine in machines]


def _result_files(cache_dir):
    return sorted((cache_dir / "results").glob("*.json"))


# -- result-cache corruption --------------------------------------------

def test_truncated_result_entry_is_quarantined_and_recomputed(tmp_path):
    """The satellite regression: a cache file truncated between sweeps
    (torn write, full disk) is moved aside, not served or fatal."""
    cache = tmp_path / "cache"
    jobs = _jobs()
    baseline = ExperimentEngine(max_workers=1, cache_dir=cache).run(jobs)
    assert baseline.ok
    (entry,) = _result_files(cache)
    entry.write_text(entry.read_text()[: entry.stat().st_size // 2])

    rerun = ExperimentEngine(max_workers=1, cache_dir=cache).run(jobs)
    assert rerun.ok
    assert rerun.metrics.quarantined == 1
    assert rerun.metrics.result_cache_hits == 0  # recomputed, not served
    assert sorted(p.name for p in (cache / "quarantine").iterdir()) \
        == [entry.name, f"{entry.name}.reason"]
    assert rerun.results[0].cycles == baseline.results[0].cycles
    # The recomputed entry is back on disk and healthy again.
    third = ExperimentEngine(max_workers=1, cache_dir=cache).run(jobs)
    assert third.metrics.result_cache_hits == 1
    assert third.metrics.quarantined == 0


def test_checksum_catches_tampered_but_valid_json(tmp_path):
    """Bit rot that still parses: the sha256 envelope must reject it."""
    cache = tmp_path / "cache"
    jobs = _jobs()
    baseline = ExperimentEngine(max_workers=1, cache_dir=cache).run(jobs)
    (entry,) = _result_files(cache)
    header, body = entry.read_text().split("\n", 1)
    result = json.loads(body)
    result["cycles"] += 1  # body no longer matches sha256
    entry.write_text(header + "\n" + json.dumps(result))

    rerun = ExperimentEngine(max_workers=1, cache_dir=cache).run(jobs)
    assert rerun.metrics.quarantined == 1
    assert rerun.results[0].cycles == baseline.results[0].cycles


def test_foreign_schema_entry_is_quarantined(tmp_path):
    cache = tmp_path / "cache"
    jobs = _jobs()
    ExperimentEngine(max_workers=1, cache_dir=cache).run(jobs)
    (entry,) = _result_files(cache)
    entry.write_text(json.dumps({"legacy": "payload"}))
    rerun = ExperimentEngine(max_workers=1, cache_dir=cache).run(jobs)
    assert rerun.ok
    assert rerun.metrics.quarantined == 1


# -- trace-cache corruption ---------------------------------------------

def test_corrupt_trace_file_is_quarantined_and_regenerated(tmp_path):
    first = DiskTraceCache(tmp_path / "cache")
    original = first.get("gcc", LENGTH, 1)
    path = first.path_for("gcc", LENGTH, 1)
    assert path.exists()
    path.write_bytes(b"\x00garbage, not a trace\x00")

    fresh = DiskTraceCache(tmp_path / "cache")
    regenerated = fresh.get("gcc", LENGTH, 1)
    assert fresh.quarantined == 1
    assert regenerated == original
    assert list((tmp_path / "cache" / "quarantine").iterdir())
    # The rewritten entry serves cleanly from then on.
    again = DiskTraceCache(tmp_path / "cache")
    assert again.get("gcc", LENGTH, 1) == original
    assert again.disk_hits == 1 and again.quarantined == 0


def test_truncated_trace_mid_sweep_does_not_sink_the_run(tmp_path):
    """End to end: corrupt the trace tier between two sweeps; the next
    sweep quarantines, regenerates, and produces identical results."""
    cache = tmp_path / "cache"
    jobs = _jobs(machines=("single", "fgstp"))
    baseline = ExperimentEngine(max_workers=1, cache_dir=cache).run(jobs)
    assert baseline.ok

    (trace_file,) = (cache / "traces").glob("*.trace")
    trace_file.write_bytes(trace_file.read_bytes()[:40])
    for entry in _result_files(cache):
        entry.unlink()  # force re-simulation so the trace is reloaded

    rerun = ExperimentEngine(max_workers=1, cache_dir=cache).run(jobs)
    assert rerun.ok
    assert trace_file.name in [p.name
                               for p in (cache / "quarantine").iterdir()]
    for before, after in zip(baseline.results, rerun.results):
        assert after.cycles == before.cycles


# -- structured failures in a sweep -------------------------------------

def test_hanging_job_leaves_dump_and_partial_but_sweep_continues(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "stuck_queue:after=0")
    monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
    cache = tmp_path / "cache"
    # stuck_queue only applies to inter-core machines: fgstp hangs, the
    # single-core sibling must still complete.
    jobs = _jobs(machines=("fgstp", "single"))
    engine = ExperimentEngine(max_workers=1, retries=0, cache_dir=cache)
    outcome = engine.run(jobs)

    assert not outcome.ok
    (failure,) = outcome.failures
    assert failure.job.machine == "fgstp"
    assert failure.kind == "error"
    assert failure.failure_class == "hang:intercore"
    assert failure.partial["cycles"] > 0
    assert failure.partial["instructions"] < LENGTH
    assert "crash dump" in str(failure)
    dump = load_crash_dump(failure.dump_path)
    assert failure.dump_path.startswith(str(cache / "crashes"))
    assert dump["failure_class"] == "hang:intercore"
    assert dump["context"]["chaos"] == "stuck_queue:after=0"
    assert dump["context"]["benchmark"] == "gcc"
    # The sibling job completed despite the poisoned one.
    assert outcome.results[1] is not None
    assert outcome.results[1].instructions == LENGTH - WARMUP
    # Failed jobs must never be cached as results.
    assert len(_result_files(cache)) == 1


def test_structured_failure_survives_the_process_pool(tmp_path,
                                                      monkeypatch):
    """SimulationError pickles across workers with its payload intact."""
    monkeypatch.setenv("REPRO_CHAOS", "stuck_queue:after=0")
    monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
    jobs = _jobs(machines=("fgstp", "single"))
    engine = ExperimentEngine(max_workers=2, retries=0,
                              cache_dir=tmp_path / "cache")
    outcome = engine.run(jobs)
    (failure,) = outcome.failures
    assert failure.failure_class == "hang:intercore"
    assert failure.partial is not None and failure.partial["cycles"] > 0
    assert os.path.exists(failure.dump_path)
    assert outcome.results[1] is not None


def test_without_a_cache_dir_the_dump_lands_in_the_default_crash_dir(
        tmp_path, monkeypatch):
    """Where ``repro forensics`` and ``repro minimize`` look by default:
    ``.repro_cache/crashes/`` under the working directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CHAOS", "stuck_queue:after=0")
    monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
    engine = ExperimentEngine(max_workers=1, retries=0, cache_dir=None)
    outcome = engine.run(_jobs(machines=("fgstp",)))
    (failure,) = outcome.failures
    assert failure.failure_class == "hang:intercore"
    assert failure.dump_path.startswith(str(DEFAULT_CRASH_DIR))
    assert load_crash_dump(tmp_path / failure.dump_path)[
        "failure_class"] == "hang:intercore"
    assert [path.name for path in tmp_path.rglob("*.json")] \
        == [Path(failure.dump_path).name]
