"""Glue: run a machine with the commit-stream oracle attached.

:func:`run_checked` takes the machine's builder from its caller:
:func:`repro.harness.parallel.execute_job`, which runs every oracle job
through it, and the self-test's mutant runs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from ..stats.result import SimResult
from ..trace.record import TraceRecord
from .golden import GoldenStream
from .oracle import CommitStreamOracle


def run_checked(build: Callable[..., Any], trace: Sequence[TraceRecord],
                machine: str, workload: str = "trace", warmup: int = 0,
                golden: Optional[GoldenStream] = None, mutator=None,
                context: Optional[Dict[str, Any]] = None) -> SimResult:
    """Run *trace* on ``build(commit_hook=hook)`` with every retirement
    checked.

    Args:
        build: Builds the machine, given the oracle's commit hook.
        trace: The dynamic instruction stream (including any warm-up
            prefix).
        machine: Machine label the oracle reports.
        warmup: Warm-up prefix length — warmed instructions never retire
            architecturally, so the golden stream starts after them.
        golden: Reference stream for the *measured* part of the run;
            defaults to trace fidelity over ``trace[warmup:]``.
        mutator: Optional :class:`~repro.oracle.mutate.EventMutator`
            injected between machine and oracle (self-test only).
        context: Replay recipe attached to any divergence raised.

    Raises:
        OracleDivergence: at the first retirement that disagrees with
            the golden stream (or, on :meth:`finish`, when the stream
            ended early).
    """
    if golden is None:
        golden = GoldenStream.from_trace(trace[warmup:] if warmup else trace)
    oracle = CommitStreamOracle(golden, machine=machine, workload=workload,
                                context=context)
    hook = oracle.hook(mutator=mutator)
    result = build(commit_hook=hook).run(trace, workload=workload,
                                         warmup=warmup)
    hook.finish()
    result.extra["oracle"] = {
        "checked": oracle.events_checked,
        "golden_source": golden.source,
    }
    return result
