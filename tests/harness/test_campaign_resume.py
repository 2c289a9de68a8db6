"""Interrupt safety, resumable campaigns, and per-job budgets.

Tier-1 covers the in-process contracts (cooperative stop, cache-backed
resume, byte-identical results, retry history, memory budgets); the
subprocess signal/CLI round trips run under the ``slow`` marker.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.harness.campaign import (Campaign, CampaignError,
                                    auto_campaign_id)
from repro.harness.config import ExperimentConfig
from repro.harness.parallel import (ExperimentEngine, _call_with_rss_limit,
                                    _call_with_timeout, execute_job,
                                    make_job)
from repro.integrity.errors import JobMemoryExceeded, SimulationError
from repro.uarch.params import core_config

BASE = core_config("small")


def _jobs(count=5, length=1200, warmup=300):
    return [make_job("single", "gcc", BASE,
                     ExperimentConfig(trace_length=length, warmup=warmup,
                                      seed=seed))
            for seed in range(1, count + 1)]


def _write_store(outcome, cache_dir, campaign_id="c"):
    campaign = Campaign.create(campaign_id, {}, cache_dir)
    campaign.write_results(outcome.results, outcome.jobs)
    return campaign.results_path.read_bytes()


# ----------------------------------------------------------------------
# Campaign bookkeeping
# ----------------------------------------------------------------------

def test_campaign_create_load_roundtrip(tmp_path):
    recipe = {"benchmarks": ["gcc"], "seeds": [1, 2]}
    created = Campaign.create("alpha", recipe, tmp_path)
    loaded = Campaign.load("alpha", tmp_path)
    assert loaded.id == "alpha"
    assert loaded.recipe == recipe
    assert Campaign.known_ids(tmp_path) == ["alpha"]


def test_campaign_create_refuses_collision(tmp_path):
    Campaign.create("alpha", {}, tmp_path)
    with pytest.raises(CampaignError):
        Campaign.create("alpha", {}, tmp_path)


def test_campaign_load_unknown_raises(tmp_path):
    with pytest.raises(CampaignError):
        Campaign.load("ghost", tmp_path)


def test_journal_survives_torn_tail(tmp_path):
    campaign = Campaign.create("alpha", {}, tmp_path)
    campaign.log("campaign-start", attempt=1)
    campaign.log("job-done", message="j1")
    with campaign.journal_path.open("a") as stream:
        stream.write('{"event": "job-done", "mess')  # writer died here
    events = campaign.journal_events()
    assert [event["event"] for event in events] == ["campaign-start",
                                                    "job-done"]
    assert campaign.attempts() == 1


def test_auto_campaign_id_shape():
    assert auto_campaign_id().startswith("sweep-")


# ----------------------------------------------------------------------
# Interrupt safety (in-process stop_event; serial and pool paths)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workers", (1, 2))
def test_interrupt_then_resume_byte_identical(tmp_path, workers):
    jobs = _jobs(5)
    stop = threading.Event()
    done = []

    def progress(event, message):
        if event == "job-done":
            done.append(message)
            if len(done) >= 2:
                stop.set()

    interrupted = ExperimentEngine(
        max_workers=workers, cache_dir=tmp_path / "cache",
        progress=progress, stop_event=stop).run(jobs)
    assert interrupted.metrics.interrupted
    assert interrupted.metrics.jobs_done < len(jobs)
    assert not interrupted.failures

    # Completed jobs were flushed to the result cache *before* the
    # stop, so the resumed engine serves them as hits.
    resumed = ExperimentEngine(max_workers=workers,
                               cache_dir=tmp_path / "cache").run(jobs)
    assert not resumed.metrics.interrupted
    assert resumed.metrics.result_cache_hits >= interrupted.metrics.jobs_done
    assert all(result is not None for result in resumed.results)

    straight = ExperimentEngine(max_workers=workers,
                                cache_dir=tmp_path / "straight").run(jobs)
    assert _write_store(resumed, tmp_path / "cache") == \
        _write_store(straight, tmp_path / "straight")


def test_preset_stop_event_runs_nothing(tmp_path):
    stop = threading.Event()
    stop.set()
    outcome = ExperimentEngine(max_workers=1,
                               cache_dir=tmp_path / "cache",
                               stop_event=stop).run(_jobs(3))
    assert outcome.metrics.interrupted
    assert outcome.metrics.jobs_done == 0
    assert not outcome.failures


# ----------------------------------------------------------------------
# Retry history (satellite: full per-attempt record)
# ----------------------------------------------------------------------

def test_retry_history_reaches_failure_and_crash_dump(tmp_path):
    def exploding(job):
        raise SimulationError(f"boom {job.name}", machine=job.machine)

    engine = ExperimentEngine(max_workers=1, retries=1,
                              cache_dir=tmp_path / "cache")
    outcome = engine.run(_jobs(1), exploding)
    [failure] = outcome.failures
    assert failure.attempts == 2
    assert [entry["attempt"] for entry in failure.history] == [1, 2]
    assert all(entry["kind"] == "error" for entry in failure.history)
    assert all(entry["elapsed"] >= 0.0 for entry in failure.history)
    assert all("boom" in entry["error"] for entry in failure.history)

    dump = json.loads(Path(failure.dump_path).read_text())
    assert dump["context"]["retry_history"] == failure.history


# ----------------------------------------------------------------------
# Timeout-unenforced surfacing (satellite 1)
# ----------------------------------------------------------------------

def test_call_with_timeout_reports_unenforced_off_main_thread():
    observed = []
    state = {}

    def run():
        state["result"] = _call_with_timeout(
            lambda job: "ran", _jobs(1)[0], 0.5,
            unenforced=lambda: observed.append(True))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    assert state["result"] == "ran"
    assert observed == [True]


def test_engine_emits_timeout_unenforced_event(tmp_path):
    events = []
    engine = ExperimentEngine(
        max_workers=1, timeout=30.0, cache_dir=tmp_path / "cache",
        progress=lambda event, message: events.append(event))
    state = {}

    def run():
        state["outcome"] = engine.run(_jobs(1))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    outcome = state["outcome"]
    assert outcome.metrics.timeout_unenforced
    assert "job-timeout-unenforced" in events
    assert outcome.metrics.jobs_done == 1


# ----------------------------------------------------------------------
# Per-job memory budgets
# ----------------------------------------------------------------------

needs_rlimit = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="RLIMIT_AS enforcement is only reliable on Linux")


@needs_rlimit
def test_rss_budget_raises_structured_error():
    def hog(job):
        return bytearray(4 << 30)  # 4 GiB, far past the budget

    with pytest.raises(JobMemoryExceeded) as excinfo:
        _call_with_rss_limit(hog, _jobs(1)[0], 1024)
    assert excinfo.value.kind == "memory"


@needs_rlimit
def test_rss_budget_failure_flows_through_engine(tmp_path):
    def hog(job):
        return bytearray(4 << 30)

    engine = ExperimentEngine(max_workers=1, retries=0,
                              cache_dir=tmp_path / "cache",
                              rss_limit_mb=1024)
    outcome = engine.run(_jobs(1), hog)
    [failure] = outcome.failures
    assert failure.kind == "memory"
    assert failure.failure_class == "memory"
    assert failure.dump_path  # structured → crash dump written
    assert failure.history[0]["kind"] == "memory"


@needs_rlimit
def test_rss_budget_restored_after_job():
    import resource

    before = resource.getrlimit(resource.RLIMIT_AS)
    _call_with_rss_limit(lambda job: "ok", _jobs(1)[0], 1024)
    assert resource.getrlimit(resource.RLIMIT_AS) == before


# ----------------------------------------------------------------------
# Stuck-worker preemption and subprocess signal round trips (slow)
# ----------------------------------------------------------------------

def _wedge_or_run(job):
    if job.config.seed == 1:
        time.sleep(120)  # a worker that will never heartbeat again
    return execute_job(job)


@pytest.mark.slow
def test_stuck_worker_is_preempted(tmp_path):
    events = []
    engine = ExperimentEngine(
        max_workers=2, retries=0, cache_dir=tmp_path / "cache",
        stuck_after=2.0,
        progress=lambda event, message: events.append(event))
    outcome = engine.run(_jobs(3), _wedge_or_run)
    assert outcome.metrics.preempted >= 1
    assert "job-preempted" in events
    [failure] = [f for f in outcome.failures
                 if f.job.config.seed == 1]
    assert failure.kind == "stuck"
    # The healthy jobs still complete (pool survivors or serial drain).
    healthy = [result for job, result in zip(outcome.jobs, outcome.results)
               if job.config.seed != 1]
    assert all(result is not None for result in healthy)


def _sweep_cmd(cache_dir, extra):
    return [sys.executable, "-m", "repro", "sweep",
            "--benchmarks", "gcc", "mcf",
            "--seeds", "1", "2", "3",
            "--machines", "single",
            "--workers", "2",
            "--length", "9000", "--warmup", "2000",
            "--cache-dir", str(cache_dir), "--quiet"] + extra


def _repro_env():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.slow
@pytest.mark.parametrize("signum", (signal.SIGINT, signal.SIGTERM))
def test_cli_signal_interrupt_then_resume(tmp_path, signum):
    cache = tmp_path / "cache"
    process = subprocess.Popen(
        _sweep_cmd(cache, ["--campaign", "t"]),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_repro_env(), cwd=tmp_path)
    time.sleep(2.5)
    process.send_signal(signum)
    process.communicate(timeout=120)
    assert process.returncode in (0, 1)  # 0 iff it won the race

    resumed = subprocess.run(
        _sweep_cmd(cache, ["--resume", "t"]),
        capture_output=True, env=_repro_env(), cwd=tmp_path, timeout=300)
    assert resumed.returncode == 0
    assert b"sweep results" in resumed.stdout
    results = cache / "campaigns" / "t" / "results.jsonl"
    assert results.stat().st_size > 0
    assert len(results.read_text().splitlines()) == 6  # 2 bench × 3 seeds
    events = [json.loads(line)["event"]
              for line in (cache / "campaigns" / "t" /
                           "journal.jsonl").read_text().splitlines()]
    assert "campaign-start" in events
    assert "campaign-complete" in events
