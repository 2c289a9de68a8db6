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

``repro minimize`` drives this from a crash dump's replay recipe; the
harness-facing helpers live at the bottom so the core algorithm stays a
pure function usable on any ``run_fn``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..trace.record import TraceRecord
from ..uarch.warmup import reseq
from .chaos import ChaosSpec, apply_chaos
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
    """Build a probe runner from a crash dump's replay recipe.

    The recipe must name the machine and core config; a ``chaos`` entry
    is re-applied to every probe machine so injected faults reproduce.
    Probes run without warm-up — the minimizer shrinks raw triggers, and
    warm-up prefixes are exactly the kind of bulk it exists to remove.

    A truthy ``oracle`` entry (failures raised while running under the
    commit-stream oracle) makes every probe re-check trace fidelity:
    the candidate itself becomes the golden stream, preserving "this
    machine mis-retires its own input" while shrinking.  A ``run``
    entry names a validation battery run, whose core and overrides the
    probes rebuild.
    """
    from ..harness.runners import build_machine
    from ..uarch.params import core_config

    # A drain error raised by one Fg-STP core names that core
    # (``fgstp-core0``): replay the machine that owns it.  A recipe
    # without a machine replays on Fg-STP.
    machine_name = str(context.get("machine") or "fgstp").split("-core")[0]
    base = core_config(str(context.get("config", "small")))
    chaos_raw = context.get("chaos")
    spec = ChaosSpec.parse(str(chaos_raw)) if chaos_raw else None

    if context.get("oracle"):
        from ..oracle.attach import oracle_run_fn
        options = {"chaos": spec}
        if context.get("run"):
            from ..validation import battery_runs
            run = battery_runs(base)[str(context["run"])]
            machine_name, base = run.machine, run.config
            options.update(run.options)
        return oracle_run_fn(machine_name, base, **options)

    def run(candidate: Sequence[TraceRecord]):
        machine = build_machine(machine_name, base)
        if spec is not None:
            apply_chaos(machine, spec, strict=False)
        return machine.run(list(candidate), workload="minimize", warmup=0)

    return run


def trace_from_context(context: Dict[str, Any]) -> List[TraceRecord]:
    """Regenerate the failing trace named by a replay recipe: a
    kernel's functionally executed trace, or a generated benchmark.

    Raises:
        KeyError: when the recipe names no benchmark and no known kernel.
    """
    from ..workloads.generator import generate_trace
    from ..workloads.kernels import run_kernel

    if context.get("kernel"):
        return run_kernel(str(context["kernel"])).trace
    benchmark = context["benchmark"]
    length = int(context.get("length", 0))
    seed = int(context.get("seed", 1))
    if length <= 0:
        raise KeyError("replay recipe has no trace length")
    return generate_trace(benchmark, length, seed)


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
