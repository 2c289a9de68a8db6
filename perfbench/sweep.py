"""The ``sweep_suite`` workload: many short jobs through the sweep engine.

One *cycle* is a cold phase and a run of warm passes.  The cold phase
runs every machine over the 20-benchmark suite through
``ExperimentEngine`` with a fresh directory as both its cwd and its disk
cache, so traces are generated and written, results are written, and
checkpoints land at a fixed interval.  (``run_machine`` resumes
from ``.repro_cache/checkpoints/`` under the cwd, so a reused directory
would silently time a resumed run.)  Each warm pass re-runs the
finished sweep, so every job is a result-cache read.

Here per-job dispatch and cache I/O dominate, not the cycle loop.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.harness.config import ExperimentConfig
from repro.harness.parallel import ExperimentEngine, execute_job, make_job
from repro.harness.runners import MACHINES
from repro.uarch.params import core_config
from repro.workloads.suite import suite_names

from cells import Tally, exact_counts, fingerprint, invariant_problems
from hostspeed import REFERENCE_S, clocked

CONFIG = "medium"
LENGTH = 1_200
WARMUP = 400
MEASURED = LENGTH - WARMUP
#: Committed-instruction checkpoint cadence of every cold job.
CHECKPOINT_INTERVAL = 300
#: One worker: the engine's in-process path.  With two pool workers on
#: a shared two-CPU host, cold-phase throughput swung by 35% from run to
#: run, and the host-speed kernel (one thread, in this process) cannot
#: correct for contention on the second CPU.
WORKERS = 1
#: Warm passes per cycle: one pass of 80 jobs takes about 10 ms.
WARM_PASSES = 40
#: Cycles run even when the time budget is already spent.
MIN_CYCLES = 3


def jobs(seed: int) -> list:
    """Every machine over the whole suite, checkpointing on."""
    base = core_config(CONFIG)
    config = ExperimentConfig(trace_length=LENGTH, warmup=WARMUP, seed=seed)
    return [make_job(machine, benchmark, base, config,
                     checkpoint_interval=CHECKPOINT_INTERVAL)
            for benchmark in suite_names("all") for machine in MACHINES]


def generate(seed: int) -> Dict[str, list]:
    """The suite's traces for *seed* (the cold phase regenerates them)."""
    from repro.workloads.generator import generate_trace
    return {name: generate_trace(name, LENGTH, seed)
            for name in suite_names("all")}


def _checkpoint_files(directory: Path) -> Tuple[int, int]:
    files = list((directory / ".repro_cache" / "checkpoints").glob("*.ckpt"))
    return len(files), sum(path.stat().st_size for path in files)


def _cold_phase(engine, job_list, host):
    """Run the cold phase; returns ``(outcome, reference seconds)``.

    The engine's in-process path calls ``job_fn`` once per job, so the
    host-speed kernel runs before every job: a sample every few tens of
    milliseconds instead of one at each end of a phase lasting seconds.
    The kernels' own time is taken out again.
    """
    kernels = []

    def job_fn(job):
        kernels.append(host.kernel())
        return execute_job(job)

    outcome, seconds = clocked(engine.run, job_list, job_fn)
    kernels = kernels or [host.kernel()]
    return outcome, ((seconds - sum(kernels)) * REFERENCE_S
                     / statistics.median(kernels))


def _cycle(job_list, workdir: Path, tally: Tally, reference: List[str],
           host) -> dict:
    """One cold phase plus :data:`WARM_PASSES` warm passes in a fresh
    directory, removed afterwards.  Times are in reference seconds."""
    directory = Path(tempfile.mkdtemp(prefix="sweep-", dir=workdir))
    previous = os.getcwd()
    os.chdir(directory)
    try:
        engine = ExperimentEngine(max_workers=WORKERS, cache_dir=directory)
        cold, cold_s = _cold_phase(engine, job_list, host)
        files, size = _checkpoint_files(directory)
        prints = _check(tally, "cold", cold, None)
        if not reference:
            reference.extend(prints)
        elif prints != reference:
            tally.check("cold", ["results differ from the first cold phase"])
        warm_s = []
        for _ in range(WARM_PASSES):
            warm, seconds = host.seconds(engine.run, job_list)
            warm_s.append(seconds)
            _check(tally, "warm", warm, reference)
    finally:
        os.chdir(previous)
        shutil.rmtree(directory, ignore_errors=True)
    return {"cold": cold, "cold_s": cold_s, "warm_s": warm_s,
            "warm_hit_rate": warm.metrics.cache_hit_rate,
            "ckpt_files": files, "ckpt_bytes": size}


def _check(tally: Tally, phase: str, outcome, reference) -> List[str]:
    """Count every job of *outcome* as one operation; a job fails when
    it did not finish, breaks an invariant or (warm) differs from the
    cold result.  Returns the result fingerprints."""
    prints = []
    for index, (job, result) in enumerate(zip(outcome.jobs,
                                              outcome.results)):
        label = f"{phase} {job.name}"
        if result is None:
            tally.check(label, ["job did not finish"])
            prints.append("")
            continue
        prints.append(fingerprint(result))
        problems = invariant_problems(result, MEASURED)
        if reference is not None and prints[-1] != reference[index]:
            problems.append("warm result differs from the cold result")
        tally.check(label, problems)
    return prints


def measure(seed: int, seconds: float, workdir: Path, traced: bool,
            host) -> Tuple[Dict[str, float], Tally]:
    job_list = jobs(seed)
    tally = Tally()
    reference: List[str] = []
    done = []
    deadline = time.perf_counter() + seconds
    while len(done) < MIN_CYCLES or time.perf_counter() < deadline:
        done.append(_cycle(job_list, workdir, tally, reference, host))
    cold_s = [cycle["cold_s"] for cycle in done]
    warm_s = [pass_s for cycle in done for pass_s in cycle["warm_s"]]
    first = done[0]["cold"]
    results = [result for result in first.results if result is not None]
    instructions = sum(result.instructions for result in results)
    sim_cycles = sum(result.cycles for result in results)
    cold_median = statistics.median(cold_s)
    warm_median = statistics.median(warm_s)
    metrics = {
        "sim_ips": instructions / cold_median,
        "sim_kcps": sim_cycles / cold_median / 1000.0,
        "sim_ipc": instructions / sim_cycles,
        "jobs_per_s": len(job_list) / warm_median,
    }
    if not traced:
        return metrics, tally

    def stage(name: str) -> float:
        return statistics.median(
            cycle["cold"].metrics.stage_seconds.get(name, 0.0)
            for cycle in done)

    metrics.update(exact_counts(
        (job.machine, result, None)
        for job, result in zip(first.jobs, first.results)
        if result is not None))
    metrics.update({
        "sweep_cold_jobs_per_s": len(job_list) / cold_median,
        "sweep_warm_jobs_per_s": len(job_list) / warm_median,
        "sweep.cache_probe_s": stage("cache_probe"),
        "sweep.execute_s": stage("execute"),
        "sweep.per_job_s": cold_median / len(job_list),
        "sweep.result_cache_hit_rate": statistics.median(
            cycle["warm_hit_rate"] for cycle in done),
        "sweep.retries": sum(cycle["cold"].metrics.retries
                             for cycle in done),
        "sweep.jobs_failed": sum(cycle["cold"].metrics.jobs_failed
                                 for cycle in done),
        "ckpt.files": done[0]["ckpt_files"],
        "ckpt.bytes": done[0]["ckpt_bytes"],
    })
    return metrics, tally
