"""The engine's memory result tier: within one engine each distinct job
simulates once, and every later hit is a fresh result equal to a disk
hit."""

import json
import shutil

import repro.harness.parallel as parallel
from repro.harness.config import ExperimentConfig
from repro.harness.parallel import (ExperimentEngine, execute_job,
                                    matrix_jobs)
from repro.harness.report import run_and_render
from repro.workloads.suite import TraceCache


def _jobs():
    return matrix_jobs(benchmarks=["gcc"], seeds=[1, 2],
                       machines=["single", "fgstp"], trace_length=1200,
                       warmup=400)


def _records(outcome):
    return [json.dumps(result.as_dict(), sort_keys=True)
            for result in outcome.results]


def test_a_rerun_is_served_from_memory_without_a_cache_dir():
    jobs = _jobs()
    engine = ExperimentEngine(max_workers=1)
    first = engine.run(jobs)
    again = engine.run(jobs)
    assert first.metrics.jobs_done == len(jobs)
    assert again.metrics.result_cache_hits == len(jobs)
    assert again.metrics.jobs_done == 0 and again.metrics.mode == "cached"
    assert _records(again) == _records(first)


def test_finished_results_and_disk_hits_join_the_memory_tier(tmp_path):
    jobs = _jobs()
    writer = ExperimentEngine(max_workers=1, cache_dir=tmp_path)
    finished = writer.run(jobs)
    reader = ExperimentEngine(max_workers=1, cache_dir=tmp_path)
    disk = reader.run(jobs)
    assert disk.metrics.result_cache_hits == len(jobs)
    shutil.rmtree(tmp_path / "results")
    for engine in (writer, reader):
        memory = engine.run(jobs)
        assert memory.metrics.result_cache_hits == len(jobs)
        assert _records(memory) == _records(disk) == _records(finished)


def test_mutating_a_served_result_leaves_the_next_hit_unchanged():
    jobs = _jobs()
    engine = ExperimentEngine(max_workers=1)
    finished = engine.run(jobs).results[1]
    served = engine.run(jobs).results[1]
    expected = json.dumps(served.as_dict(), sort_keys=True)
    for result in (finished, served):
        result.cycles = 0
        result.extra["cpistack"].clear()
        result.extra["mutated"] = True
    again = engine.run(jobs).results[1]
    assert again is not served
    assert json.dumps(again.as_dict(), sort_keys=True) == expected


def test_result_cache_false_turns_off_both_tiers(tmp_path):
    jobs = _jobs()
    engine = ExperimentEngine(max_workers=1, cache_dir=tmp_path,
                              result_cache=False)
    engine.run(jobs)
    again = engine.run(jobs)
    assert again.metrics.result_cache_hits == 0
    assert again.metrics.jobs_done == len(jobs)
    assert not (tmp_path / "results").exists()


def test_only_sim_results_are_kept():
    jobs = _jobs()
    calls = []

    def job_fn(job):
        calls.append(job)
        return job.name

    engine = ExperimentEngine(max_workers=1)
    for _ in range(2):
        outcome = engine.run(jobs, job_fn)
        assert outcome.results == [job.name for job in jobs]
        assert outcome.metrics.result_cache_hits == 0
    assert len(calls) == 2 * len(jobs)


REPORT = ExperimentConfig(trace_length=1200, warmup=400,
                          benchmarks=["gcc", "mcf"])


def test_report_simulates_each_distinct_job_once(monkeypatch):
    """Experiments share jobs (E3, E10 and E12 are E1/E2 jobs; E6 and
    E7's "on" halves are E1's Fg-STP job), and the report's one engine
    runs each once, printing what an engine without a result tier
    prints."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    submitted, outcomes = [], []
    run = ExperimentEngine.run

    def spy(self, jobs, job_fn=execute_job):
        submitted.extend(job.key() for job in jobs)
        outcomes.append(run(self, jobs, job_fn))
        return outcomes[-1]

    monkeypatch.setattr(ExperimentEngine, "run", spy)
    traces = TraceCache()
    monkeypatch.setattr(parallel, "_default_engine",
                        ExperimentEngine(trace_cache=traces))
    report = run_and_render(config=REPORT)
    distinct = len(set(submitted))
    assert sum(outcome.metrics.jobs_done for outcome in outcomes) \
        == distinct < len(submitted)
    assert sum(outcome.metrics.result_cache_hits for outcome in outcomes) \
        == len(submitted) - distinct

    monkeypatch.setattr(parallel, "_default_engine", ExperimentEngine(
        result_cache=False, trace_cache=traces))
    submitted.clear()
    outcomes.clear()
    assert run_and_render(config=REPORT) == report
    assert sum(outcome.metrics.jobs_done for outcome in outcomes) \
        == len(submitted) > distinct
