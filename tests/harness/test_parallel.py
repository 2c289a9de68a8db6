"""Tests for the parallel experiment engine.

Covers the acceptance bar of the engine: parallel and serial execution
of the same matrix are bit-identical, poisoned jobs (exceptions and
timeouts) are retried then skipped without sinking the sweep, a dead
pool degrades to serial execution, and the disk caches round-trip.

The injected-failure job functions live at module level so worker
processes can unpickle them; several rely on the ``fork`` start method
(the default on Linux) to tell parent from worker.
"""

import multiprocessing
import os
import sys
import time
from pathlib import Path

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.parallel import (ExperimentEngine, JobTimeout,
                                    SweepError, SweepJob, execute_job,
                                    make_job, matrix_jobs, run_jobs)
from repro.uarch.params import core_config

#: Small-but-real sizing: big enough to exercise every machine stage.
LENGTH, WARMUP = 3000, 1000

_MAIN_PID = os.getpid()
_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"


def small_matrix(benchmarks=("gcc", "mcf"), seeds=(1, 2),
                 machines=("single", "fgstp")):
    return matrix_jobs(benchmarks=list(benchmarks), seeds=list(seeds),
                       machines=list(machines), configs=("medium",),
                       trace_length=LENGTH, warmup=WARMUP)


def poison_job(benchmark="BOOM"):
    """A job whose benchmark name triggers the injected job functions."""
    return SweepJob(machine="single", benchmark=benchmark,
                    base=core_config("medium"),
                    config=ExperimentConfig(trace_length=LENGTH,
                                            warmup=WARMUP))


# -- injected job functions (module level: picklable) -------------------

def _raising_fn(job):
    if job.benchmark == "BOOM":
        raise RuntimeError("injected failure")
    return execute_job(job)


def _sleepy_fn(job):
    if job.benchmark == "SLEEP":
        time.sleep(3.0)
        raise RuntimeError("slept past the timeout")
    return execute_job(job)


def _crashing_fn(job):
    """Kills the worker process outright (parent survives)."""
    if os.getpid() != _MAIN_PID:
        os._exit(3)
    return execute_job(job)


def _napping_fn(job):
    """Sleeps for the seconds named by the job's benchmark (``NAP0.3``)."""
    time.sleep(float(job.benchmark[len("NAP"):]))
    return job.benchmark


def _fail_then_crash_fn(job):
    """Fails in a worker, kills the next worker, fails in the parent.

    The job's benchmark names a marker file recording the first attempt.
    """
    if os.getpid() == _MAIN_PID:
        raise RuntimeError("failed in the parent")
    marker = Path(job.benchmark)
    if marker.exists():
        os._exit(3)
    marker.write_text("failed once")
    raise RuntimeError("failed in a worker")


# -- determinism / equivalence ------------------------------------------

def test_parallel_matches_serial_bit_identical(tmp_path):
    jobs = small_matrix()
    serial = ExperimentEngine(max_workers=1).run(jobs)
    parallel = ExperimentEngine(max_workers=2,
                                cache_dir=tmp_path / "cache").run(jobs)
    assert serial.ok and parallel.ok
    assert serial.metrics.mode == "serial"
    assert parallel.metrics.mode == "parallel"
    for job, left, right in zip(jobs, serial.results, parallel.results):
        assert left.cycles == right.cycles, job.name
        assert left.instructions == right.instructions, job.name
        assert left.ipc == right.ipc, job.name


def test_serial_cache_dir_matches_memory_cache(tmp_path):
    """Disk-cached traces must not perturb results (serialisation guard)."""
    jobs = small_matrix(benchmarks=("gcc",), seeds=(1,))
    plain = ExperimentEngine(max_workers=1).run(jobs)
    disk = ExperimentEngine(max_workers=1,
                            cache_dir=tmp_path / "cache").run(jobs)
    disk_again = ExperimentEngine(max_workers=1,
                                  cache_dir=tmp_path / "cache").run(jobs)
    cycles = [result.cycles for result in plain.results]
    assert [result.cycles for result in disk.results] == cycles
    assert [result.cycles for result in disk_again.results] == cycles
    assert disk_again.metrics.result_cache_hits == len(jobs)


def test_result_cache_hits_skip_execution(tmp_path):
    jobs = small_matrix(benchmarks=("gcc",), seeds=(1, 2))
    engine = ExperimentEngine(max_workers=1, cache_dir=tmp_path / "cache")
    first = engine.run(jobs)
    assert first.metrics.result_cache_hits == 0
    assert first.metrics.traces_generated == 2
    second = engine.run(jobs)
    assert second.metrics.result_cache_hits == len(jobs)
    assert second.metrics.jobs_done == 0
    for left, right in zip(first.results, second.results):
        assert left.cycles == right.cycles
        assert left.extra == right.extra


# -- robustness ---------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_poisoned_job_is_retried_then_skipped(workers, tmp_path):
    jobs = small_matrix(benchmarks=("gcc",), seeds=(1,)) + [poison_job()]
    engine = ExperimentEngine(max_workers=workers, retries=2,
                              cache_dir=tmp_path / "cache")
    outcome = engine.run(jobs, job_fn=_raising_fn)
    assert len(outcome.failures) == 1
    failure = outcome.failures[0]
    assert failure.kind == "error"
    assert failure.attempts == 3  # 1 + 2 retries
    assert "injected failure" in failure.error
    assert outcome.metrics.retries == 2
    assert outcome.metrics.jobs_failed == 1
    # The healthy jobs still completed.
    healthy = [result for job, result in zip(jobs, outcome.results)
               if job.benchmark != "BOOM"]
    assert all(result is not None for result in healthy)
    assert outcome.results[-1] is None


def test_timeout_job_is_retried_then_skipped_parallel():
    jobs = small_matrix(benchmarks=("gcc",), seeds=(1,)) \
        + [poison_job("SLEEP")]
    engine = ExperimentEngine(max_workers=2, timeout=0.4, retries=1)
    started = time.monotonic()
    outcome = engine.run(jobs, job_fn=_sleepy_fn)
    elapsed = time.monotonic() - started
    assert len(outcome.failures) == 1
    assert outcome.failures[0].kind == "timeout"
    assert outcome.failures[0].attempts == 2
    healthy = [result for job, result in zip(jobs, outcome.results)
               if job.benchmark != "SLEEP"]
    assert all(result is not None for result in healthy)
    # Two 0.4s attempts must not degenerate into two full 3s sleeps.
    assert elapsed < 3.0


@pytest.mark.skipif(not hasattr(__import__("signal"), "setitimer"),
                    reason="serial timeouts need POSIX setitimer")
def test_timeout_job_is_retried_then_skipped_serial():
    jobs = [poison_job("SLEEP")] + small_matrix(benchmarks=("gcc",),
                                                seeds=(1,))
    engine = ExperimentEngine(max_workers=1, timeout=1.0, retries=1)
    outcome = engine.run(jobs, job_fn=_sleepy_fn)
    assert len(outcome.failures) == 1
    assert outcome.failures[0].kind == "timeout"
    assert outcome.results[0] is None
    assert all(result is not None for result in outcome.results[1:])


def _swallowing_fn(job):
    """Sleeps past the timeout and swallows the alarm's exception, the
    way a garbage-collector callback does when the alarm lands in it."""
    try:
        time.sleep(1.0)
    except JobTimeout:
        pass
    return execute_job(small_matrix(benchmarks=("gcc",), seeds=(1,),
                                    machines=("single",))[0])


@pytest.mark.skipif(not hasattr(__import__("signal"), "setitimer"),
                    reason="serial timeouts need POSIX setitimer")
def test_swallowed_timeout_still_fails_the_job_serial():
    engine = ExperimentEngine(max_workers=1, timeout=0.1, retries=0)
    outcome = engine.run([poison_job("SLEEP")], job_fn=_swallowing_fn)
    assert not outcome.ok
    assert [failure.kind for failure in outcome.failures] == ["timeout"]
    assert outcome.results == [None]


def test_transient_failure_recovers_after_retry(tmp_path):
    marker = tmp_path / "flaky-marker"
    job = small_matrix(benchmarks=("gcc",), seeds=(1,))[0]
    flaky = SweepJob(machine=job.machine, benchmark="BOOM", base=job.base,
                     config=job.config)

    def transient_fn(j):
        if j.benchmark == "BOOM":
            if not marker.exists():
                marker.write_text("poisoned once")
                raise RuntimeError("injected transient failure")
            j = job  # recovered: run the real benchmark
        return execute_job(j)

    engine = ExperimentEngine(max_workers=1, retries=1)
    outcome = engine.run([flaky], job_fn=transient_fn)
    assert outcome.ok
    assert outcome.metrics.retries == 1
    assert outcome.results[0].cycles > 0


@pytest.mark.skipif(not _FORK, reason="needs the fork start method")
def test_broken_pool_degrades_to_serial():
    jobs = small_matrix(benchmarks=("gcc",), seeds=(1, 2))
    engine = ExperimentEngine(max_workers=2, retries=0)
    outcome = engine.run(jobs, job_fn=_crashing_fn)
    # Workers died; the parent drained every job serially.
    assert outcome.metrics.mode == "degraded"
    assert outcome.ok
    assert all(result is not None for result in outcome.results)
    reference = ExperimentEngine(max_workers=1).run(jobs)
    assert [r.cycles for r in outcome.results] \
        == [r.cycles for r in reference.results]


@pytest.mark.parametrize("naps, timed_out", [
    ([0.3] * 8, []),
    ([0.6] * 6, []),
    # A timed-out job holds its worker until it ends; the other jobs
    # share the free worker rather than queue behind the held one.
    ([3.0] + [0.8] * 3, [0]),
    ([2.5, 2.5, 0.1], [0, 1]),  # both workers held: the last job waits
], ids=["8x0.3", "6x0.6", "one-held", "all-held"])
def test_pool_timeout_counts_from_dispatch(naps, timed_out):
    """A job queued behind busy workers must not time out unstarted.

    Every job not in *timed_out* finishes well inside the timeout once
    it runs; only a clock started before the job reaches a worker could
    fail it.
    """
    jobs = [poison_job(f"NAP{nap}") for nap in naps]
    engine = ExperimentEngine(max_workers=2, timeout=1.0, retries=0)
    outcome = engine.run(jobs, job_fn=_napping_fn)
    assert [failure.kind for failure in outcome.failures] \
        == ["timeout"] * len(timed_out), [str(f) for f in outcome.failures]
    assert outcome.results == [None if index in timed_out else job.benchmark
                               for index, job in enumerate(jobs)]


@pytest.mark.skipif(not _FORK, reason="needs the fork start method")
def test_drain_continues_the_retry_budget_and_history(tmp_path):
    """A worker death charges no attempt, and the drain keeps counting."""
    job = poison_job(str(tmp_path / "failed-once"))
    engine = ExperimentEngine(max_workers=2, retries=2)
    outcome = engine.run([job], job_fn=_fail_then_crash_fn)
    assert outcome.metrics.mode == "degraded"
    [failure] = outcome.failures
    assert failure.attempts == 3
    assert [entry["attempt"] for entry in failure.history] == [1, 2, 3]
    assert [entry["error"] for entry in failure.history] == [
        "failed in a worker", "failed in the parent",
        "failed in the parent"]


@pytest.mark.parametrize("workers", [1, 2])
def test_each_executed_job_is_stored_once(workers, tmp_path, monkeypatch):
    stored = []
    store = ExperimentEngine._store_cached_result

    def counting_store(self, job, result):
        stored.append(job.key())
        store(self, job, result)

    monkeypatch.setattr(ExperimentEngine, "_store_cached_result",
                        counting_store)
    jobs = small_matrix(benchmarks=("gcc",), seeds=(1,))
    outcome = ExperimentEngine(max_workers=workers,
                               cache_dir=tmp_path / "cache").run(jobs)
    assert outcome.ok
    assert sorted(stored) == sorted(job.key() for job in jobs)


def test_run_jobs_strict_raises_on_failure():
    with pytest.raises(SweepError) as excinfo:
        run_jobs([poison_job()],
                 engine=ExperimentEngine(max_workers=1, retries=0))
    assert "BOOM" in str(excinfo.value)


# -- speedup (the acceptance criterion; needs real cores) ---------------

@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup assertion needs >= 4 cores")
def test_parallel_sweep_is_2x_faster_on_4_cores(tmp_path):
    jobs = matrix_jobs(benchmarks=["gcc", "mcf", "hmmer"],
                       seeds=[1, 2, 3], machines=["single", "fgstp"],
                       configs=("medium",), trace_length=6000,
                       warmup=2000)
    started = time.monotonic()
    serial = ExperimentEngine(max_workers=1).run(jobs)
    serial_wall = time.monotonic() - started
    started = time.monotonic()
    parallel = ExperimentEngine(max_workers=4,
                                cache_dir=tmp_path / "cache").run(jobs)
    parallel_wall = time.monotonic() - started
    assert serial.ok and parallel.ok
    assert [r.cycles for r in serial.results] \
        == [r.cycles for r in parallel.results]
    assert parallel_wall * 2.0 <= serial_wall, \
        f"parallel {parallel_wall:.2f}s vs serial {serial_wall:.2f}s"


# -- cache schema versioning --------------------------------------------

def test_schema_bump_regenerates_stale_cached_results(tmp_path,
                                                      monkeypatch):
    """Results cached by older code must be re-run, not served stale.

    Simulates a pre-upgrade cache by writing entries under an older
    ``MODEL_VERSION``, then checks that the current version ignores them
    and regenerates results that carry the new ``cpistack`` payload.
    """
    from repro import diskstore

    jobs = small_matrix(benchmarks=("gcc",), seeds=(1,),
                        machines=("single",))
    cache_dir = tmp_path / "cache"

    monkeypatch.setattr(diskstore, "MODEL_VERSION", 1)
    stale_key = jobs[0].key()
    old = ExperimentEngine(max_workers=1, cache_dir=cache_dir).run(jobs)
    assert old.ok and old.metrics.result_cache_hits == 0

    monkeypatch.undo()
    assert jobs[0].key() != stale_key  # the version is part of the key
    fresh = ExperimentEngine(max_workers=1, cache_dir=cache_dir).run(jobs)
    assert fresh.ok
    # Old entries are orphaned: nothing was served from the cache.
    assert fresh.metrics.result_cache_hits == 0
    assert fresh.metrics.jobs_done == len(jobs)
    assert "cpistack" in fresh.results[0].extra

    # And the regenerated entries are served on the next run.
    again = ExperimentEngine(max_workers=1, cache_dir=cache_dir).run(jobs)
    assert again.metrics.result_cache_hits == len(jobs)
    assert "cpistack" in again.results[0].extra


def test_model_version_bump_orphans_stale_checkpoints(tmp_path,
                                                      monkeypatch):
    """A checkpoint written under an older ``MODEL_VERSION`` is never
    resumed: the version is part of its run key, so the run starts cold
    and matches a run that never checkpointed."""
    from repro import diskstore
    from repro.ckpt.store import CheckpointStore, run_key
    from repro.harness.runners import run_machine
    from repro.workloads.suite import TraceCache

    base = core_config("small")
    config = ExperimentConfig(trace_length=2400, warmup=400, seed=3)
    store = CheckpointStore(tmp_path / "checkpoints")
    key = run_key("single", "gcc", 400, "pk", "fp")
    monkeypatch.setattr(diskstore, "MODEL_VERSION", 1)
    assert run_key("single", "gcc", 400, "pk", "fp") != key
    run_machine("single", "gcc", base, config, cache=TraceCache(),
                checkpoint_interval=700, checkpoint_sink=store)
    (stale,) = store.directory.glob("*.ckpt")

    monkeypatch.undo()
    found = []
    load = store.load
    monkeypatch.setattr(store, "load",
                        lambda key: found.append(load(key)) or found[-1])
    resumed = run_machine("single", "gcc", base, config, cache=TraceCache(),
                          checkpoint_interval=700, checkpoint_sink=store)
    assert found == [None]
    assert stale.exists()  # orphaned, not quarantined
    assert resumed.as_dict() == run_machine(
        "single", "gcc", base, config, cache=TraceCache()).as_dict()


# -- job identity -------------------------------------------------------

def test_job_keys_separate_every_axis():
    base = core_config("medium")
    config = ExperimentConfig(trace_length=LENGTH, warmup=WARMUP)
    job = make_job("fgstp", "gcc", base, config)
    assert job.key() == make_job("fgstp", "gcc", base, config).key()
    variants = [
        make_job("single", "gcc", base, config),
        make_job("fgstp", "mcf", base, config),
        make_job("fgstp", "gcc", core_config("small"), config),
        make_job("fgstp", "gcc", base, config.with_(seed=2)),
        make_job("fgstp", "gcc", base, config.with_(warmup=WARMUP - 1)),
        make_job("fgstp", "gcc", base, config, frontend_overhead=2),
    ]
    keys = {variant.key() for variant in variants}
    assert job.key() not in keys
    assert len(keys) == len(variants)
