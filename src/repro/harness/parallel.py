"""Parallel experiment execution engine.

Every experiment in this repository reduces to a matrix of independent
:class:`SweepJob` runs — benchmark × seed × machine × configuration —
and the matrix is embarrassingly parallel.  This module fans those jobs out
across a :class:`concurrent.futures.ProcessPoolExecutor` with:

* a **disk-backed cache** shared by all workers: generated traces
  (:class:`repro.workloads.suite.DiskTraceCache`) and finished
  :class:`~repro.stats.result.SimResult` records (content-hash keyed
  JSON under ``<cache_dir>/results/``) are persisted so repeated sweeps
  and sibling workers never redo work; in front of the result tier,
  each engine keeps every finished record in memory, so it simulates
  each distinct job once;
* **robustness**: a per-job timeout, bounded retry with exponential
  backoff, and graceful degradation — a broken pool (dead worker,
  unavailable multiprocessing) drains the remaining jobs serially in
  the parent instead of sinking the sweep;
* a **metrics layer** (:class:`SweepMetrics`): jobs done / failed /
  retried, cache hit rates and wall-clock per stage, surfaced through
  :mod:`repro.harness.report` and the ``repro sweep`` CLI subcommand.

Determinism: trace generation is seed-deterministic and the timing
models are pure functions of their trace, so a parallel sweep is
bit-identical to a serial one (asserted by
``tests/harness/test_parallel.py``).

Serial execution (``max_workers=1``) goes through the same job loop
with one in-process slot and no pool, so :mod:`.multiseed` and
:mod:`.experiments` route through the engine unconditionally and scale
with ``REPRO_WORKERS`` for free.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import signal
import threading
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple, Union)

from .. import diskstore
from ..ckpt.manager import set_heartbeat
from ..fgstp.params import FgStpParams
from ..integrity.chaos import maybe_apply_env_chaos, spec_from_env
from ..integrity.errors import JobMemoryExceeded, SimulationError
from ..integrity.forensics import DEFAULT_CRASH_DIR, write_crash_dump
from ..integrity.watchdog import window_from_env
from ..isa.opcodes import OpClass
from ..stats.result import SimResult
from ..trace.record import TraceRecord
from ..uarch.params import (BranchPredictorParams, CacheParams, CoreParams,
                            core_config)
from ..workloads.suite import (DEFAULT_CACHE, DiskTraceCache, TraceCache,
                               trace_key)
from .config import ExperimentConfig
from .runners import new_machine


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------

_DEFAULT_FGSTP = FgStpParams()


def _differences(value: Any, default: Any, prefix: str = "") -> List[str]:
    """``field=value`` for each field of *value* that differs from
    *default*; nested dataclasses and dicts are compared entry by entry
    (``branch.kind=gshare``, ``latencies.IMUL=4``)."""
    if value == default:
        return []
    if dataclasses.is_dataclass(value) and type(value) is type(default):
        entries = [(item.name, getattr(value, item.name),
                    getattr(default, item.name))
                   for item in dataclasses.fields(value)]
    elif isinstance(value, dict) and isinstance(default, dict):
        entries = [(getattr(entry, "name", entry), value.get(entry),
                    default.get(entry)) for entry in {**default, **value}]
    else:
        return [f"{prefix}={value}"]
    return [change for entry, left, right in entries
            for change in _differences(
                left, right, f"{prefix}.{entry}" if prefix else entry)]


@dataclass(frozen=True)
class SweepJob:
    """One simulation: the one description of a run, which
    :func:`execute_job` runs and every crash dump stores
    (:meth:`as_dict`) for ``repro minimize`` to rebuild.

    Attributes:
        machine: Machine label (see :data:`repro.harness.runners.MACHINES`).
        benchmark: Workload name.
        base: Per-core configuration.
        config: Experiment sizing (trace length / warmup / seed).
        fgstp: Fg-STP parameters (fgstp machines only).
        overrides: Machine-specific constructor kwargs as a sorted item
            tuple (kept hashable/picklable).
        oracle: Run under the commit-stream oracle (every retirement
            checked against the trace; divergences fail the job).
        trace: Run with a sampled :class:`~repro.obs.tracer.
            PipelineTracer` attached; the event dump lands under
            ``<cache_dir>/traces/`` and the result carries an
            ``extra["pipetrace"]`` block.  Timing is unaffected (traced
            runs are bit-identical), but the extra block earns the job
            a distinct cache key.
        kernel: Run this :data:`~repro.workloads.kernels.KERNELS`
            program instead of a benchmark (no sizing; warm-up 0).
        chaos: Fault-injection spec; empty means ``REPRO_CHAOS``'s.
    """

    machine: str
    benchmark: str
    base: CoreParams
    config: ExperimentConfig
    fgstp: Optional[FgStpParams] = None
    overrides: Tuple[Tuple[str, Any], ...] = ()
    oracle: bool = False
    trace: bool = False
    kernel: str = ""
    chaos: str = ""

    @property
    def workload(self) -> str:
        """The kernel or benchmark this job runs."""
        return self.kernel or self.benchmark

    @cached_property
    def name(self) -> str:
        """Short human-readable label for progress lines: what differs
        from the defaults (Fg-STP fields, core fields against the named
        config, overrides) follows the seed, so no two sweep points
        share a name."""
        core, fgstp = self.machine_differences()
        changes = (fgstp + core
                   + [f"{option}={value}" for option, value in self.overrides]
                   + [flag for flag in ("oracle", "trace")
                      if getattr(self, flag)])
        return "/".join([self.machine, self.workload, self.base.name,
                         f"s{self.config.seed}", *changes])

    def machine_differences(self) -> Tuple[List[str], List[str]]:
        """``field=value`` for each core field that differs from the
        named config, and for each Fg-STP field that differs from
        ``FgStpParams()``."""
        try:
            named = core_config(self.base.name)
        except KeyError:
            named = self.base
        return (_differences(self.base, named),
                _differences(self.fgstp or _DEFAULT_FGSTP, _DEFAULT_FGSTP))

    @cached_property
    def trace_key(self) -> str:
        """The generated trace's key; empty for a kernel job."""
        return "" if self.kernel else trace_key(
            self.benchmark, self.config.trace_length, self.config.seed)

    @cached_property
    def _static_key(self) -> str:
        """Everything in :meth:`key` but the model version and chaos.

        Default Fg-STP parameters key as ``None``: both build the same
        machine, so they are one simulation.  The core and the Fg-STP
        parameters key as their ``key()``.
        """
        fgstp = (repr(None) if self.fgstp in (None, _DEFAULT_FGSTP)
                 else self.fgstp.key())
        # Markers join only when set, so plain keys never change, and no
        # checked or traced result is served to a plain run.
        return "|".join([
            self.machine,
            f"kernel:{self.kernel}" if self.kernel else self.trace_key,
            str(self.config.warmup), self.base.key(), fgstp,
            repr(self.overrides),
            *[flag for flag in ("oracle", "trace") if getattr(self, flag)]])

    def chaos_spec(self) -> str:
        """The chaos spec in force: the job's own, else ``REPRO_CHAOS``'s."""
        return str(spec_from_env(self.chaos) or "")

    def key(self) -> str:
        """Content-hash of everything that determines this job's result.

        The model version and the chaos spec in force are read at every
        call, so neither a version bump nor a fault is ever served
        another's result.
        """
        chaos = self.chaos_spec()
        return diskstore.key(diskstore.MODEL_VERSION, self._static_key,
                             *([f"chaos:{chaos}"] if chaos else []))

    def as_dict(self) -> Dict[str, Any]:
        """The job as JSON fields: every core and Fg-STP field, the chaos
        spec and the watchdog window in force (unless the job sets its
        own); a kernel job names no benchmark sizing."""
        recipe: Dict[str, Any] = {"machine": self.machine}
        recipe.update({"kernel": self.kernel} if self.kernel else {
            "benchmark": self.benchmark, "length": self.config.trace_length,
            "warmup": self.config.warmup, "seed": self.config.seed})
        # The core's two dicts travel as pair lists: a dump's sort_keys
        # would reorder objects, and with them the rebuilt core's repr,
        # hence its key.
        recipe["core"] = dict(
            dataclasses.asdict(self.base),
            fu_pool=list(self.base.fu_pool.items()),
            latencies=[(op.name, cycles)
                       for op, cycles in self.base.latencies.items()])
        recipe["fgstp"] = self.fgstp and dataclasses.asdict(self.fgstp)
        recipe["overrides"] = dict(self.overrides)
        recipe.update((flag, True) for flag in ("oracle", "trace")
                      if getattr(self, flag))
        chaos = self.chaos_spec()
        if chaos:
            recipe["chaos"] = chaos
        if "watchdog_window" not in recipe["overrides"]:
            recipe["watchdog_window"] = window_from_env()
        return recipe

    @classmethod
    def from_dict(cls, recipe: Dict[str, Any]) -> "SweepJob":
        """Rebuild a job from :meth:`as_dict`'s fields.

        Raises:
            KeyError: on a missing field (a crash dump written before
                dumps stored jobs has no ``core``).
        """
        kernel = recipe.get("kernel", "")
        config = ExperimentConfig(warmup=0) if kernel else ExperimentConfig(
            recipe["length"], recipe["warmup"], recipe["seed"])
        core = recipe["core"]
        base = CoreParams(**dict(
            core, branch=BranchPredictorParams(**core["branch"]),
            fu_pool=dict(core["fu_pool"]),
            latencies={OpClass[op]: cycles
                       for op, cycles in core["latencies"]},
            **{level: CacheParams(**core[level])
               for level in ("l1d", "l1i", "l2")}))
        fgstp = recipe["fgstp"] and FgStpParams(**recipe["fgstp"])
        return cls(recipe["machine"], "" if kernel else recipe["benchmark"],
                   base, config, fgstp,
                   tuple(sorted(recipe["overrides"].items())),
                   bool(recipe.get("oracle")), bool(recipe.get("trace")),
                   kernel, recipe.get("chaos", ""))


def make_job(machine: str, benchmark: str, base: CoreParams,
             config: ExperimentConfig,
             fgstp: Optional[FgStpParams] = None,
             oracle: bool = False,
             trace: bool = False,
             **overrides) -> SweepJob:
    """Build a :class:`SweepJob`; *overrides* are machine constructor
    keywords."""
    return SweepJob(machine=machine, benchmark=benchmark, base=base,
                    config=config, fgstp=fgstp,
                    overrides=tuple(sorted(overrides.items())),
                    oracle=oracle, trace=trace)


def matrix_jobs(benchmarks: Sequence[str], seeds: Sequence[int],
                machines: Sequence[str],
                configs: Sequence[str] = ("medium",),
                trace_length: int = 30000, warmup: int = 10000,
                fgstp: Optional[FgStpParams] = None) -> List[SweepJob]:
    """The full benchmark × seed × machine × config job matrix."""
    jobs = []
    for config_name in configs:
        base = core_config(config_name)
        for seed in seeds:
            config = ExperimentConfig(trace_length=trace_length,
                                      warmup=warmup, seed=seed)
            for benchmark in benchmarks:
                for machine in machines:
                    jobs.append(make_job(
                        machine, benchmark, base, config,
                        fgstp=fgstp if machine.startswith("fgstp") else None))
    return jobs


# ----------------------------------------------------------------------
# Job execution (runs inside workers and in-process)
# ----------------------------------------------------------------------

#: Trace cache used by :func:`execute_job` in this process.  Workers get
#: one pointed at the shared cache directory via :func:`_init_worker`;
#: the engine installs its own cache around in-process jobs.
_PROCESS_CACHE: TraceCache = TraceCache()

#: Where traced jobs dump their pipeline-event files in this process
#: (``<cache_dir>/traces/``); ``None`` keeps events in-memory only.
_PROCESS_TRACE_DIR: Optional[Path] = None

#: This worker's heartbeat file (``<cache_dir>/heartbeats/<pid>.json``).
#: Rewritten at every job start and touched by every checkpoint the
#: worker takes, so the parent can tell a stuck worker (stale mtime)
#: from a slow-but-progressing one.  ``None`` outside pool workers.
_PROCESS_HB_PATH: Optional[Path] = None

#: Ring capacity and sampling shape of sweep-attached tracers.  Sweeps
#: trade completeness for bounded files: one window in every
#: :data:`TRACE_SAMPLE_PERIOD` is recorded (rare instants always are).
TRACE_RING_CAPACITY = 65536
TRACE_SAMPLE_WINDOW = 2048
TRACE_SAMPLE_PERIOD = 4


def _init_worker(cache_dir: Optional[str],
                 hb_dir: Optional[str] = None) -> None:
    """Pool initializer: trace cache and heartbeat file."""
    global _PROCESS_CACHE, _PROCESS_TRACE_DIR, _PROCESS_HB_PATH
    _PROCESS_CACHE = (DiskTraceCache(cache_dir) if cache_dir
                      else TraceCache())
    _PROCESS_TRACE_DIR = (Path(cache_dir) / "traces" if cache_dir
                          else None)
    _PROCESS_HB_PATH = None
    if hb_dir:
        try:
            path = Path(hb_dir) / f"{os.getpid()}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"pid": os.getpid(), "job": "",
                                        "key": "",
                                        "started": time.time()}))
            _PROCESS_HB_PATH = path
            # Long-running jobs prove liveness through their checkpoint
            # cadence: every snapshot the machine takes touches the
            # heartbeat file, so only a genuinely wedged simulation
            # goes stale.
            set_heartbeat(lambda: os.utime(path))
        except OSError:
            _PROCESS_HB_PATH = None
    # Workers must not intercept Ctrl-C; the parent handles shutdown.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass


def _worker_run(job_fn: Callable[["SweepJob"], SimResult],
                job: "SweepJob",
                rss_limit_mb: Optional[int] = None) -> SimResult:
    """Run one job attempt: heartbeat + memory budget around *job_fn*.

    Records which job this process is on (pool workers only, so the
    parent can requeue it if the worker has to be preempted), then runs
    the job under :func:`_call_with_rss_limit`.
    """
    if _PROCESS_HB_PATH is not None:
        try:
            _PROCESS_HB_PATH.write_text(json.dumps(
                {"pid": os.getpid(), "job": job.name, "key": job.key(),
                 "started": time.time()}))
        except OSError:
            pass
    return _call_with_rss_limit(job_fn, job, rss_limit_mb)


def _finish_pipetrace(job: SweepJob, result: SimResult,
                      tracer) -> SimResult:
    """Dump the traced job's events and annotate its result."""
    from ..obs.export import write_chrome_trace

    dump = ""
    if _PROCESS_TRACE_DIR is not None:
        path = _PROCESS_TRACE_DIR / f"{job.key()}.pipetrace.json"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_chrome_trace({job.machine: tracer.events()}, path)
            dump = str(path)
        except OSError:
            pass  # a full disk must not fail the job itself
    result.extra["pipetrace"] = {
        "events": len(tracer.events()),
        "dropped": tracer.dropped,
        "dump": dump,
    }
    return result


def job_trace(job: SweepJob) -> List[TraceRecord]:
    """The trace *job* names: its kernel's, or its benchmark's (cached)."""
    if job.kernel:
        from ..workloads.kernels import run_kernel
        return run_kernel(job.kernel).trace
    return _PROCESS_CACHE.get(job.benchmark, job.config.trace_length,
                              job.config.seed)


def execute_job(job: SweepJob,
                trace: Optional[Sequence[TraceRecord]] = None,
                golden=None, tracer=None) -> SimResult:
    """Run *job* on *trace* (default :func:`job_trace`): the one way a
    job runs, for the engine, the relation battery, ``repro simulate``,
    ``repro oracle``, the fuzzer and the minimizer's probes.

    The machine gets the job's core, Fg-STP parameters, overrides and
    chaos spec in force, and *tracer*, unless the job samples into its
    own.  An oracle job checks every retirement against *golden*
    (default: trace fidelity over the measured records).
    """
    if trace is None:
        trace = job_trace(job)
    if job.trace:
        from ..obs.tracer import PipelineTracer
        tracer = PipelineTracer(capacity=TRACE_RING_CAPACITY,
                                sample_window=TRACE_SAMPLE_WINDOW,
                                sample_period=TRACE_SAMPLE_PERIOD)

    def build(**observers):
        return maybe_apply_env_chaos(
            new_machine(job.machine, job.base, job.fgstp, tracer=tracer,
                        **dict(job.overrides), **observers), job.chaos)

    if job.oracle:
        from ..oracle.attach import run_checked
        result = run_checked(build, trace, job.machine, job.workload,
                             job.config.warmup, golden)
    else:
        result = build().run(trace, workload=job.workload,
                             warmup=job.config.warmup)
    return _finish_pipetrace(job, result, tracer) if job.trace else result


class JobTimeout(Exception):
    """A job exceeded the engine's per-job timeout."""


def _failure_kind(exc: Exception) -> str:
    """Classify one failed attempt for metrics and retry history."""
    if isinstance(exc, JobTimeout):
        return "timeout"
    if isinstance(exc, JobMemoryExceeded):
        return "memory"
    return "error"


def _call_with_timeout(function: Callable[[SweepJob], SimResult],
                       job: SweepJob,
                       timeout: Optional[float],
                       unenforced: Optional[Callable[[], None]] = None
                       ) -> SimResult:
    """In-process timeout enforcement via ``SIGALRM`` where possible.

    Off the main thread (or on platforms without ``setitimer``) the
    timeout is not enforceable without a pool; the job simply runs, and
    *unenforced* — when given — is invoked so the engine can surface
    the silently-dropped guarantee instead of pretending it held.

    The handler's :class:`JobTimeout` can be lost: the alarm may land
    in a garbage-collector callback, which swallows exceptions, or in
    job code that catches it.  A machine run pauses the collector
    (:func:`repro.ckpt.state.run_scope`), so during the simulation
    itself no collector callback runs, but the rest of the job (trace
    generation, the result's bookkeeping) still allocates with it on.
    The handler therefore also records that it fired, and a job that
    then returns normally still times out.
    """
    can_alarm = (timeout is not None and hasattr(signal, "setitimer")
                 and threading.current_thread() is threading.main_thread())
    if not can_alarm:
        if timeout is not None and unenforced is not None:
            unenforced()
        return function(job)

    message = f"{job.name} exceeded {timeout:.3g}s"
    fired = []

    def _on_alarm(_signum, _frame):
        fired.append(True)
        raise JobTimeout(message)

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        result = function(job)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if fired:
        raise JobTimeout(message)
    return result


def _call_with_rss_limit(function: Callable[[SweepJob], SimResult],
                         job: SweepJob,
                         rss_limit_mb: Optional[int]) -> SimResult:
    """Per-job memory budget: cap, run, restore.

    ``RLIMIT_AS`` is the portable proxy for an RSS budget: allocation
    beyond the cap raises ``MemoryError`` inside the job, converted here
    to the structured :class:`JobMemoryExceeded` that crash dumps and
    forensics understand, rather than inviting the OOM killer.  The cap
    applies to the *whole* process (the parent, for in-process jobs),
    so it is installed only around the job and restored afterwards.
    Where the cap cannot be installed (no ``resource`` module,
    privileged hard limit) the job runs unbudgeted, the same stance as
    the in-process timeout.
    """
    if not rss_limit_mb:
        return function(job)
    try:
        import resource
    except ImportError:
        return function(job)
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS,
                           (int(rss_limit_mb) * 1024 * 1024, hard))
    except (OSError, ValueError):
        return function(job)
    try:
        return function(job)
    except MemoryError as exc:
        raise JobMemoryExceeded(
            f"{job.name} exceeded its per-job memory budget "
            f"({rss_limit_mb} MiB)", machine=job.machine) from exc
    finally:
        try:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        except (OSError, ValueError):
            pass


# ----------------------------------------------------------------------
# Outcome bookkeeping
# ----------------------------------------------------------------------

#: Envelope tag of a cached :class:`SimResult` (its JSON is the body).
RESULT_FORMAT = "repro-result-v1"


@dataclass
class JobFailure:
    """One permanently failed job (after all retries).

    Attributes:
        job: The failed job.
        kind: ``"timeout"``, ``"memory"``, ``"stuck"`` (preempted
            hung worker, retry budget spent) or ``"error"``.
        attempts: Total attempts made (1 + retries).
        error: Stringified final exception.
        failure_class: :attr:`SimulationError.failure_class` when the
            final exception was structured (``""`` otherwise).
        partial: Partial statistics carried by a structured failure —
            where the dead run's cycles went.
        dump_path: Crash dump written for this failure (``""`` when
            dumps are disabled or the failure carried no state).
        history: One record per attempt —
            ``{"attempt", "kind", "error", "elapsed"}`` — so a crash
            dump shows *how* the job died each time, not just the last
            word (a timeout that became an error on retry is a very
            different bug from two identical timeouts).
    """

    job: SweepJob
    kind: str
    attempts: int
    error: str
    failure_class: str = ""
    partial: Optional[Dict[str, Any]] = None
    dump_path: str = ""
    history: List[Dict[str, Any]] = field(default_factory=list)

    def __str__(self) -> str:
        text = (f"{self.job.name}: {self.failure_class or self.kind} after "
                f"{self.attempts} attempt(s): {self.error}")
        if self.dump_path:
            text += f" [crash dump: {self.dump_path}]"
        return text


@dataclass
class SweepMetrics:
    """Progress and efficiency counters for one engine run.

    Attributes:
        mode: ``"serial"``, ``"parallel"``, ``"degraded"`` (pool died
            mid-run; remainder drained serially), or ``"cached"``
            (every job served from the result cache).
        workers: Worker processes requested.
        jobs_total / jobs_done / jobs_failed: Job counts; done + failed +
            result_cache_hits == total on return.
        retries: Extra attempts beyond each job's first.
        interrupted: The run stopped early on a shutdown request
            (``stop_event``); completed results were still persisted.
        timeout_unenforced: A per-job timeout was configured but could
            not be enforced on at least one in-process job (no
            ``SIGALRM`` off the main thread / on this platform).
        preempted: Hung workers killed by the heartbeat monitor (their
            jobs were requeued against the retry budget).
        result_cache_hits: Jobs served from the result cache (the
            engine's memory tier, else the disk tier).
        quarantined: Corrupt result-cache entries moved aside (to
            ``<cache_dir>/quarantine/``) and recomputed.
        traces_reused / traces_generated: Distinct traces the sweep
            needed that were already on disk vs. freshly generated
            (disk cache only).
        wall_seconds: End-to-end wall clock.
        stage_seconds: Wall clock per stage (``"cache_probe"``,
            ``"execute"``).
    """

    mode: str = "serial"
    workers: int = 1
    jobs_total: int = 0
    jobs_done: int = 0
    jobs_failed: int = 0
    retries: int = 0
    interrupted: bool = False
    timeout_unenforced: bool = False
    preempted: int = 0
    result_cache_hits: int = 0
    quarantined: int = 0
    traces_reused: int = 0
    traces_generated: int = 0
    wall_seconds: float = 0.0
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of jobs satisfied from the result cache."""
        if not self.jobs_total:
            return 0.0
        return self.result_cache_hits / self.jobs_total

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "jobs_total": self.jobs_total,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "retries": self.retries,
            "interrupted": self.interrupted,
            "timeout_unenforced": self.timeout_unenforced,
            "preempted": self.preempted,
            "result_cache_hits": self.result_cache_hits,
            "quarantined": self.quarantined,
            "cache_hit_rate": self.cache_hit_rate,
            "traces_reused": self.traces_reused,
            "traces_generated": self.traces_generated,
            "wall_seconds": self.wall_seconds,
            "stage_seconds": dict(self.stage_seconds),
        }


@dataclass
class SweepOutcome:
    """Everything one engine run produced.

    ``results[i]`` corresponds to ``jobs[i]`` and is ``None`` exactly
    when that job appears in :attr:`failures`.
    """

    jobs: List[SweepJob]
    results: List[Optional[SimResult]]
    failures: List[JobFailure] = field(default_factory=list)
    metrics: SweepMetrics = field(default_factory=SweepMetrics)

    @property
    def ok(self) -> bool:
        return not self.failures


class SweepError(RuntimeError):
    """Raised by :func:`run_jobs` when any job permanently failed."""

    def __init__(self, failures: List[JobFailure]):
        self.failures = failures
        lines = "\n  ".join(str(failure) for failure in failures)
        super().__init__(f"{len(failures)} job(s) failed:\n  {lines}")


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

ProgressFn = Callable[[str, str], None]

#: Base of the exponential retry delay: attempt *n* (1-based) that
#: failed is retried after ``RETRY_BACKOFF * 2**(n-1)`` seconds.
RETRY_BACKOFF = 0.05


class ExperimentEngine:
    """Runs :class:`SweepJob` batches, in parallel where it pays.

    Args:
        max_workers: Worker processes; ``1`` runs in-process with no
            pool (identical results, no IPC overhead).
        timeout: Per-job attempt timeout in seconds (``None`` = none).
        retries: Extra attempts after a failed/timed-out first try.
        cache_dir: Root of the shared disk cache (traces + results);
            ``None`` disables both disk tiers.  A structured failure's
            crash dump lands under ``<cache_dir>/crashes/``, else under
            :data:`~repro.integrity.forensics.DEFAULT_CRASH_DIR`.
        result_cache: Serve finished results again, keyed by
            :meth:`SweepJob.key`: from this engine's memory tier, which
            keeps one entry per finished job or disk hit, then from
            ``<cache_dir>/results/`` when *cache_dir* is set.  ``False``
            turns off both tiers.
        trace_cache: Trace cache for in-process jobs (defaults to a
            fresh per-run cache, or the disk cache when *cache_dir* is
            set).
        progress: Optional callback ``(event, message)`` with events
            ``job-done``, ``job-retry``, ``job-failed``,
            ``job-preempted``, ``job-timeout-unenforced``, ``stage``.
        oracle_sample: Fraction of jobs (0..1) to run under the
            commit-stream oracle.  Selection is a deterministic hash of
            each job's content key, so re-running the same sweep checks
            the same jobs.  Sampled jobs carry a distinct cache key.
        trace_sample: Fraction of jobs (0..1) to run with a sampled
            pipeline tracer attached (event dumps land under
            ``<cache_dir>/traces/``).  Selection hashes the job key
            with a salt distinct from the oracle draw, so the two
            samples are independent; sampled jobs carry a distinct
            cache key.
        stop_event: Cooperative shutdown flag (``threading.Event``).
            Once set (typically by a SIGINT/SIGTERM handler) the engine
            stops launching jobs, abandons what cannot be cancelled,
            marks the outcome ``interrupted``, and returns — with every
            already-completed result persisted to the result cache so a
            resumed sweep never redoes them.
        stuck_after: Seconds of heartbeat silence after which a pool
            worker is declared wedged and killed (``SIGKILL``); its job
            is requeued against the retry budget.  Requires *cache_dir*
            (heartbeat files live under ``<cache_dir>/heartbeats/``).
            ``None`` disables preemption.
        rss_limit_mb: Per-job address-space budget in MiB.  A job that
            allocates past it fails with the structured
            :class:`~repro.integrity.errors.JobMemoryExceeded`
            (kind ``"memory"``) instead of OOM-killing the host.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 cache_dir: Optional[Union[str, Path]] = None,
                 result_cache: bool = True,
                 trace_cache: Optional[TraceCache] = None,
                 progress: Optional[ProgressFn] = None,
                 oracle_sample: float = 0.0,
                 trace_sample: float = 0.0,
                 stop_event: Optional[threading.Event] = None,
                 stuck_after: Optional[float] = None,
                 rss_limit_mb: Optional[int] = None):
        self.max_workers = max(1, int(max_workers or 1))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.result_cache = bool(result_cache)
        # Job key -> the pickled record a disk hit would decode.
        self._memory: Dict[str, bytes] = {}
        self.trace_cache = trace_cache
        self.progress = progress
        self.oracle_sample = min(1.0, max(0.0, float(oracle_sample)))
        self.trace_sample = min(1.0, max(0.0, float(trace_sample)))
        self.stop_event = stop_event
        self.stuck_after = stuck_after
        self.rss_limit_mb = rss_limit_mb

    # -- public API ----------------------------------------------------

    def run(self, jobs: Sequence[SweepJob],
            job_fn: Callable[[SweepJob], SimResult] = execute_job
            ) -> SweepOutcome:
        """Run *jobs* and return a :class:`SweepOutcome`.

        Permanent failures never raise — they are reported in
        ``outcome.failures`` so one poisoned job cannot sink a sweep.
        """
        jobs = [self._promote(job, "oracle", self.oracle_sample)
                for job in jobs]
        jobs = [self._promote(job, "trace", self.trace_sample,
                              salt="|pipetrace")
                for job in jobs]
        started = time.monotonic()
        metrics = SweepMetrics(jobs_total=len(jobs),
                               workers=self.max_workers)
        outcome = SweepOutcome(jobs=jobs, results=[None] * len(jobs),
                               metrics=metrics)

        probe_started = time.monotonic()
        trace_keys = {job.trace_key for job in jobs} - {""}
        preexisting = self._existing_trace_keys(trace_keys)
        pending: List[int] = []
        for index, job in enumerate(jobs):
            cached = self._load_cached_result(job, metrics)
            if cached is not None:
                outcome.results[index] = cached
                metrics.result_cache_hits += 1
            else:
                pending.append(index)
        metrics.stage_seconds["cache_probe"] = \
            time.monotonic() - probe_started

        execute_started = time.monotonic()
        pooled = self.max_workers > 1
        histories: Dict[int, List[Dict[str, Any]]] = {}
        if pending:
            metrics.mode = "parallel" if pooled else "serial"
            remaining = self._execute(jobs, pending, job_fn, outcome,
                                      histories, pooled)
            if remaining and not metrics.interrupted:
                metrics.mode = "degraded"
                self._emit("stage", f"pool unavailable; running "
                                    f"{len(remaining)} job(s) serially")
                self._execute(jobs, remaining, job_fn, outcome, histories,
                              False)
        else:
            metrics.mode = "cached"
        metrics.stage_seconds["execute"] = \
            time.monotonic() - execute_started

        after = self._existing_trace_keys(trace_keys)
        metrics.traces_reused = len(preexisting)
        metrics.traces_generated = len(after - preexisting)
        metrics.wall_seconds = time.monotonic() - started
        return outcome

    def _promote(self, job: SweepJob, field: str, fraction: float,
                 salt: str = "") -> SweepJob:
        """Set the boolean *field* of *job* when it falls in the
        *fraction* sample.

        The draw hashes the job's current content key, so it is stable
        across runs and independent of job order.  The oracle draw is
        unsalted and comes first, on the plain key.  The trace draw is
        salted so it decorrelates from the oracle draw (else the same
        low-hash jobs would soak up every kind of sampling) and hashes
        the key after any oracle promotion.
        """
        if not fraction or getattr(job, field):
            return job
        key = job.key()
        if salt:
            key = hashlib.sha256((key + salt).encode("utf-8")).hexdigest()
        if int(key, 16) % 10_000 < fraction * 10_000:
            return dataclasses.replace(job, **{field: True})
        return job

    # -- the job loop --------------------------------------------------

    def _execute(self, jobs: Sequence[SweepJob], pending: Sequence[int],
                 job_fn: Callable[[SweepJob], SimResult],
                 outcome: SweepOutcome,
                 histories: Dict[int, List[Dict[str, Any]]],
                 pooled: bool) -> List[int]:
        """Run the *pending* jobs with at most ``max_workers`` in flight.

        Pooled, a job goes to a worker process when one is free, and
        its deadline counts from that dispatch and is enforced
        parent-side: an overdue future is abandoned and the job is
        retried.  A busy worker cannot be preempted, so an abandoned
        attempt holds its slot until it ends, and the next job waits for
        a free worker rather than queueing behind it.  With
        ``stuck_after`` set, workers whose heartbeat file goes stale are
        killed outright and their jobs requeued.  In-process (serial
        mode, or draining a dead pool) there is one slot: each job runs
        as it is submitted, under the ``SIGALRM`` timeout, and its
        result or exception lands in an already-completed future, so
        both modes share the wait, retry and bookkeeping code below.

        *histories* maps a job to its failed attempts, so its length is
        the attempt count; the drain gets the same dict, and a requeued
        job keeps its retry budget and history.

        Returns the indices left unfinished — all of them when the pool
        could not be created — for an in-process drain.  A set
        ``stop_event`` abandons the jobs in flight and returns with the
        outcome marked interrupted.
        """
        global _PROCESS_CACHE, _PROCESS_TRACE_DIR
        hb_dir = (self.cache_dir / "heartbeats"
                  if pooled and self.cache_dir and self.stuck_after
                  else None)
        pool = None
        if pooled:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_init_worker,
                    initargs=(str(self.cache_dir) if self.cache_dir
                              else None,
                              str(hb_dir) if hb_dir else None))
            except (OSError, ImportError, PermissionError) as exc:
                self._emit("stage", f"process pool unavailable ({exc})")
                return list(pending)

        slots = self.max_workers if pool is not None else 1
        queue = deque(pending)
        inflight: Dict[Future, Tuple[int, Optional[float], float]] = {}
        busy: Set[Future] = set()  # abandoned, maybe still on a worker
        monitoring = self.stop_event is not None or hb_dir is not None

        def timeout_unenforced() -> None:
            if not outcome.metrics.timeout_unenforced:
                outcome.metrics.timeout_unenforced = True
                self._emit("job-timeout-unenforced",
                           f"timeout {self.timeout:.3g}s configured but "
                           f"SIGALRM is unavailable here; jobs run "
                           f"unbounded")

        def submit(index: int) -> None:
            started = time.monotonic()
            if pool is not None:
                future = pool.submit(_worker_run, job_fn, jobs[index],
                                     self.rss_limit_mb)
                deadline = started + self.timeout if self.timeout else None
            else:
                future, deadline = Future(), None
                try:
                    future.set_result(_call_with_timeout(
                        partial(_worker_run, job_fn,
                                rss_limit_mb=self.rss_limit_mb),
                        jobs[index], self.timeout,
                        unenforced=timeout_unenforced))
                except Exception as exc:
                    future.set_exception(exc)
            inflight[future] = (index, deadline, started)

        def abandon(future: Future) -> Tuple[int, float]:
            """Stop waiting for *future*; its worker may still run it."""
            index, _, started = inflight.pop(future)
            if not future.cancel():
                busy.add(future)
            return index, started

        def retry_or_fail(index: int, kind: str, exc: Exception,
                          started: float) -> None:
            """Record the failed attempt, then requeue the job or fail it."""
            history = histories.setdefault(index, [])
            history.append({"attempt": len(history) + 1, "kind": kind,
                            "error": str(exc),
                            "elapsed": time.monotonic() - started})
            if len(history) <= self.retries:
                outcome.metrics.retries += 1
                self._emit("job-retry",
                           f"{jobs[index].name}: {kind} ({exc}); "
                           f"attempt {len(history) + 1}")
                time.sleep(RETRY_BACKOFF * (2 ** (len(history) - 1)))
                queue.appendleft(index)
            else:
                self._fail(outcome, index, kind, len(history), exc,
                           history=history)

        def preempt_stuck_workers() -> None:
            """SIGKILL workers whose heartbeat went stale.

            The stuck attempt is retried or failed (as ``"stuck"``) like
            any other; the kill breaks the pool, and the
            BrokenProcessPool handler below routes the requeued and
            inflight jobs to the in-process drain.
            """
            by_key = {jobs[index].key(): future
                      for future, (index, _, _) in inflight.items()}
            stale_before = time.time() - self.stuck_after
            try:
                hb_files = list(hb_dir.glob("*.json"))
            except OSError:
                return
            for hb_file in hb_files:
                try:
                    if hb_file.stat().st_mtime > stale_before:
                        continue
                    beat = json.loads(hb_file.read_text())
                except (OSError, json.JSONDecodeError):
                    continue
                future = by_key.get(beat.get("key"))
                pid = beat.get("pid")
                if future not in inflight or not isinstance(pid, int):
                    continue
                index, started = abandon(future)
                outcome.metrics.preempted += 1
                self._emit("job-preempted",
                           f"{jobs[index].name}: worker {pid} silent for "
                           f"{self.stuck_after:.3g}s; killing and "
                           f"requeuing")
                try:
                    hb_file.unlink()
                except OSError:
                    pass
                try:
                    os.kill(pid, signal.SIGKILL)
                except (OSError, AttributeError):
                    pass
                retry_or_fail(index, "stuck",
                              JobTimeout(f"worker {pid} made no progress "
                                         f"for {self.stuck_after:.3g}s"),
                              started)

        saved = _PROCESS_CACHE, _PROCESS_TRACE_DIR
        _PROCESS_CACHE = self._serial_cache()
        _PROCESS_TRACE_DIR = (self.cache_dir / "traces"
                              if self.cache_dir else None)
        try:
            while queue or inflight:
                if self._stopped():
                    # Dispatched jobs are running; shutdown cancels the
                    # rest.
                    outcome.metrics.interrupted = True
                    break
                busy -= {future for future in busy if future.done()}
                while queue and len(inflight) + len(busy) < slots:
                    submit(queue[0])
                    queue.popleft()
                deadlines = [deadline for _, deadline, _ in inflight.values()
                             if deadline is not None]
                wait_for = (max(0.0, min(deadlines) - time.monotonic())
                            if deadlines else None)
                if monitoring:
                    wait_for = (0.25 if wait_for is None
                                else min(wait_for, 0.25))
                done, _ = wait(set(inflight) | busy, timeout=wait_for,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    if future not in inflight:
                        continue  # an abandoned attempt freed its worker
                    index, _, started = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        queue.appendleft(index)
                        raise
                    except Exception as exc:
                        retry_or_fail(index, _failure_kind(exc), exc,
                                      started)
                        continue
                    outcome.results[index] = result
                    outcome.metrics.jobs_done += 1
                    self._store_cached_result(jobs[index], result)
                    self._emit("job-done", jobs[index].name)
                now = time.monotonic()
                for future in [f for f, (_, deadline, _) in inflight.items()
                               if deadline is not None and now >= deadline]:
                    index, started = abandon(future)
                    retry_or_fail(
                        index, "timeout",
                        JobTimeout(f"exceeded {self.timeout:.3g}s"),
                        started)
                if hb_dir is not None:
                    preempt_stuck_workers()
        except BrokenProcessPool as exc:
            self._emit("stage", f"worker died ({exc})")
        finally:
            _PROCESS_CACHE, _PROCESS_TRACE_DIR = saved
            if pool is not None:
                # A clean join unless a job we stopped waiting for still
                # occupies a worker — then a blocking shutdown would wait
                # out the very hang the timeout was for.
                pool.shutdown(wait=all(future.done()
                                       for future in [*busy, *inflight]),
                              cancel_futures=True)
        return [index for index, _, _ in inflight.values()] + list(queue)

    def _serial_cache(self) -> TraceCache:
        if self.trace_cache is not None:
            return self.trace_cache
        if self.cache_dir is not None:
            return DiskTraceCache(self.cache_dir)
        return TraceCache()

    # -- caching and reporting helpers ---------------------------------

    def _result_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / "results" / f"{key}.json"

    def _load_cached_result(self, job: SweepJob,
                            metrics: Optional[SweepMetrics] = None
                            ) -> Optional[SimResult]:
        """A fresh result for *job* from the memory tier, else from a
        verified disk entry (which then joins the memory tier)."""
        if not self.result_cache:
            return None
        key = job.key()
        entry = self._memory.get(key)
        if entry is not None:
            return SimResult.from_dict(pickle.loads(entry))
        path = self._result_path(key)
        if path is None:
            return None
        try:
            stored = diskstore.get(path, RESULT_FORMAT)
            if stored is None:
                return None
            record = json.loads(stored[1])
            result = SimResult.from_dict(record)
        except (KeyError, TypeError, ValueError) as exc:
            diskstore.quarantine(path, exc)
            self._emit("stage",
                       f"quarantined corrupt cache entry {path.name} "
                       f"({exc}); recomputing")
            if metrics is not None:
                metrics.quarantined += 1
            return None
        self._memory[key] = pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
        return result

    def _store_cached_result(self, job: SweepJob, result: SimResult) -> None:
        """Keep *result* in the memory tier as the record a disk hit
        decodes, and on disk; anything but a :class:`SimResult` (a
        custom ``job_fn``'s return) is not kept."""
        if not self.result_cache or not isinstance(result, SimResult):
            return
        key = job.key()
        body = json.dumps(result.as_dict(), sort_keys=True)
        self._memory[key] = pickle.dumps(json.loads(body),
                                         pickle.HIGHEST_PROTOCOL)
        path = self._result_path(key)
        if path is None:
            return
        try:
            diskstore.put(path, body.encode("utf-8"), RESULT_FORMAT,
                          {"job": job.name})
        except OSError:
            pass  # a full disk costs a recompute, not the sweep

    def _crash_dir(self) -> Path:
        return (self.cache_dir / "crashes" if self.cache_dir
                else DEFAULT_CRASH_DIR)

    def _existing_trace_keys(self, keys: Iterable[str]) -> set:
        if self.cache_dir is None:
            return set()
        trace_dir = self.cache_dir / "traces"
        return {key for key in keys
                if (trace_dir / f"{key}.trace").exists()}

    def _stopped(self) -> bool:
        return self.stop_event is not None and self.stop_event.is_set()

    def _fail(self, outcome: SweepOutcome, index: int, kind: str,
              attempts: int, exc: Exception,
              history: Optional[List[Dict[str, Any]]] = None) -> None:
        job = outcome.jobs[index]
        failure = JobFailure(job=job, kind=kind, attempts=attempts,
                             error=str(exc), history=list(history or []))
        if isinstance(exc, SimulationError):
            # Structured failure: keep the partial statistics on the
            # record and persist a replayable crash dump next to the
            # cache (or where ``repro forensics`` looks by default), so
            # the sweep continues but nothing is lost.
            failure.failure_class = exc.failure_class
            failure.partial = exc.partial or None
            context = job.as_dict()
            if failure.history:
                context["retry_history"] = failure.history
            try:
                failure.dump_path = str(write_crash_dump(
                    exc, directory=self._crash_dir(), context=context))
            except OSError:
                pass
        outcome.failures.append(failure)
        outcome.metrics.jobs_failed += 1
        self._emit("job-failed", str(failure))

    def _emit(self, event: str, message: str) -> None:
        if self.progress is not None:
            self.progress(event, message)


# ----------------------------------------------------------------------
# Default engine + high-level helpers used by the rest of the harness
# ----------------------------------------------------------------------

_default_engine: Optional[ExperimentEngine] = None


def default_engine() -> ExperimentEngine:
    """The process-wide engine the harness routes through.

    Configured from the environment on first use: ``REPRO_WORKERS``
    (default 1 = serial) and ``REPRO_CACHE_DIR`` (default: no disk
    cache; in-process jobs then share the process-wide trace memo, so
    experiments run one after another generate each trace once).
    Replace with :func:`set_default_engine`.
    """
    global _default_engine
    if _default_engine is None:
        workers = int(os.environ.get("REPRO_WORKERS", "1"))
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        _default_engine = ExperimentEngine(
            max_workers=workers, cache_dir=cache_dir,
            trace_cache=None if cache_dir else DEFAULT_CACHE)
    return _default_engine


def set_default_engine(engine: Optional[ExperimentEngine]) -> None:
    """Install (or with ``None``, reset) the process-wide engine."""
    global _default_engine
    _default_engine = engine


def run_jobs(jobs: Sequence[SweepJob],
             engine: Optional[ExperimentEngine] = None) -> List[SimResult]:
    """Run *jobs* through *engine* (default: the process engine).

    Raises:
        SweepError: when any job permanently failed.
    """
    engine = engine or default_engine()
    outcome = engine.run(jobs)
    if not outcome.ok:
        raise SweepError(outcome.failures)
    return list(outcome.results)  # type: ignore[arg-type]


def run_suites(machines: Sequence[str], base: CoreParams,
               config: ExperimentConfig,
               engine: Optional[ExperimentEngine] = None,
               fgstp: Optional[FgStpParams] = None,
               **overrides) -> Dict[str, Dict[str, SimResult]]:
    """Run the configured benchmark suite on several machines at once.

    The whole machine × benchmark matrix is one engine batch, so it
    parallelises across machines as well as benchmarks.

    Returns:
        ``machine -> benchmark -> SimResult`` preserving suite order.
    """
    from ..workloads.suite import suite_names

    names = list(config.benchmarks) or suite_names("all")
    jobs = [make_job(machine, name, base, config,
                     fgstp=fgstp if machine.startswith("fgstp") else None,
                     **overrides)
            for machine in machines for name in names]
    results = run_jobs(jobs, engine)
    nested: Dict[str, Dict[str, SimResult]] = {}
    for job, result in zip(jobs, results):
        nested.setdefault(job.machine, {})[job.benchmark] = result
    return nested
