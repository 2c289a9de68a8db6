"""Delta-debugging trace minimization (ddmin).

A crash dump tells you *where* a run died; reproducing the failure
still means re-running the full trace.  The minimizer shrinks a failing
trace to a (1-minimal) subsequence of :class:`TraceRecord`s that still
triggers the same *failure class* — typically a handful of records — so
the repro becomes a regression fixture instead of a multi-minute rerun.

The algorithm is Zeller's ddmin over the record list: try ever-finer
complements, keep any subset that still fails identically, stop when no
single chunk can be removed.  Candidate subsets are re-sequenced
(:func:`repro.uarch.warmup.reseq`) before each probe run, so a probe
runs exactly the dense stand-alone trace a fixture would hold.

``repro minimize`` drives this from a crash dump's replay recipe, the
failed run's :class:`~repro.harness.parallel.SweepJob`, and runs every
candidate on that job; the harness-facing helpers live at the bottom so
the core algorithm stays a pure function usable on any ``run_fn``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..trace.record import TraceRecord
from ..uarch.warmup import reseq
from .errors import SimulationError


@dataclass
class MinimizationResult:
    """Outcome of one ddmin run.

    Attributes:
        records: The minimized, re-sequenced failing trace (empty when
            the failure never reproduced on the full input).
        failure_class: The failure class being preserved.
        reproduced: Whether the original input failed as expected.
        original_length / minimized_length: Trace sizes before/after.
        tests_run: Probe executions the search needed.
        last_error: The :class:`SimulationError` raised by the final
            minimal trace (carries the fresh snapshot/partial stats).
    """

    records: List[TraceRecord] = field(default_factory=list)
    failure_class: str = ""
    reproduced: bool = False
    original_length: int = 0
    minimized_length: int = 0
    tests_run: int = 0
    last_error: Optional[SimulationError] = None


def failure_class_of(run_fn: Callable[[Sequence[TraceRecord]], Any],
                     trace: Sequence[TraceRecord]
                     ) -> Optional[SimulationError]:
    """Run *trace* through *run_fn*; the SimulationError it raises, or
    ``None`` when the run succeeds (or fails un-classifiably)."""
    try:
        run_fn(reseq(list(trace)))
    except SimulationError as error:
        return error
    except Exception:
        return None
    return None


def minimize_failure(trace: Sequence[TraceRecord],
                     run_fn: Callable[[Sequence[TraceRecord]], Any],
                     failure_class: Optional[str] = None,
                     max_tests: int = 512) -> MinimizationResult:
    """ddmin-shrink *trace* to a minimal input still failing the same way.

    Args:
        trace: The failing instruction stream.
        run_fn: Executes a candidate (already re-sequenced) trace;
            failing candidates must raise :class:`SimulationError`.
        failure_class: Class to preserve; ``None`` derives it from the
            full trace's failure.
        max_tests: Probe budget — the search stops refining (keeping
            its best-so-far result) once spent.
    """
    result = MinimizationResult(original_length=len(trace))
    records = list(trace)

    first = failure_class_of(run_fn, records)
    result.tests_run += 1
    if first is None:
        return result  # does not reproduce: nothing to minimize
    if failure_class is None:
        failure_class = first.failure_class
    elif first.failure_class != failure_class:
        return result
    result.failure_class = failure_class
    result.reproduced = True
    result.last_error = first

    def still_fails(candidate: List[TraceRecord]) -> bool:
        result.tests_run += 1
        error = failure_class_of(run_fn, candidate)
        if error is not None and error.failure_class == failure_class:
            result.last_error = error
            return True
        return False

    granularity = 2
    while len(records) >= 2 and result.tests_run < max_tests:
        chunk = max(1, len(records) // granularity)
        reduced = False
        start = 0
        while start < len(records) and result.tests_run < max_tests:
            candidate = records[:start] + records[start + chunk:]
            if candidate and still_fails(candidate):
                records = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                # Re-scan from the same offset: the next chunk slid in.
            else:
                start += chunk
        if not reduced:
            if granularity >= len(records):
                break
            granularity = min(len(records), granularity * 2)

    result.records = reseq(records)
    result.minimized_length = len(result.records)
    return result


# ----------------------------------------------------------------------
# Crash-dump replay (the `repro minimize` back end)
# ----------------------------------------------------------------------

def replay_run_fn(context: Dict[str, Any]
                  ) -> Callable[[Sequence[TraceRecord]], Any]:
    """Build a probe runner from a crash dump's replay recipe, the
    failed :class:`~repro.harness.parallel.SweepJob`: each probe runs
    the job on a candidate, so on its machine, core, Fg-STP parameters,
    overrides, chaos spec and oracle flag, and with the watchdog window
    the run had (whatever ``REPRO_WATCHDOG_WINDOW`` says now).  An
    oracle job's probe checks the candidate's own trace fidelity,
    preserving "this machine mis-retires its own input".  Probes run
    without warm-up — the minimizer shrinks raw triggers, and warm-up
    prefixes are exactly the bulk it exists to remove — and without a
    sampled tracer.

    Raises:
        KeyError: when the recipe is not a job's.
    """
    from ..harness.parallel import SweepJob, execute_job

    job = SweepJob.from_dict(context)
    overrides = dict(job.overrides)
    if "watchdog_window" in context:
        overrides.setdefault("watchdog_window", context["watchdog_window"])
    probe = dataclasses.replace(job, config=job.config.with_(warmup=0),
                                overrides=tuple(sorted(overrides.items())),
                                trace=False)

    def run(candidate: Sequence[TraceRecord]):
        return execute_job(probe, list(candidate))

    return run


def trace_from_context(context: Dict[str, Any]) -> List[TraceRecord]:
    """Regenerate the failing trace a replay recipe's job names.

    Raises:
        KeyError: when the recipe is not a job's.
    """
    from ..harness.parallel import SweepJob, job_trace

    return job_trace(SweepJob.from_dict(context))


def checkpoint_suffix(trace: Sequence[TraceRecord],
                      context: Dict[str, Any]
                      ) -> Optional[List[TraceRecord]]:
    """The post-checkpoint suffix of *trace*, when the crash dump is
    anchored to a checkpoint.

    Machines anchor hangs and chaos faults to their latest checkpoint
    (``checkpoint_committed`` = measured instructions already retired
    when the snapshot was taken); everything before that point provably
    executed cleanly, so the minimizer can start from the suffix
    instead of the trace head.  ``checkpoint_committed`` counts
    *measured* (post-warmup) instructions while *trace* is the full
    regenerated stream, so the cut adds the warmup prefix back in.

    Returns the re-sequenced suffix, or ``None`` when the dump carries
    no usable anchor (no checkpoint, or a cut that would not shrink the
    probe input).
    """
    committed = context.get("checkpoint_committed")
    if not isinstance(committed, int) or committed <= 0:
        return None
    warmup = int(context.get("warmup", 0) or 0)
    cut = warmup + committed
    if cut <= 0 or cut >= len(trace):
        return None
    return reseq(list(trace[cut:]))
