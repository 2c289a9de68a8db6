"""Glue: run any machine with the commit-stream oracle attached.

These helpers are the only place the oracle package touches machine
construction; everything else in the package is machine-agnostic.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..stats.result import SimResult
from ..trace.record import TraceRecord
from .golden import GoldenStream
from .oracle import CommitStreamOracle


def run_checked(build: Callable[..., Any], trace: Sequence[TraceRecord],
                machine: str, workload: str = "trace", warmup: int = 0,
                golden: Optional[GoldenStream] = None, mutator=None,
                context: Optional[Dict[str, Any]] = None) -> SimResult:
    """Run *trace* on ``build(commit_hook=hook)`` with every retirement
    checked (see :func:`run_trace_under_oracle` for the arguments)."""
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


def run_trace_under_oracle(machine: str,
                           trace: Sequence[TraceRecord],
                           base,
                           fgstp=None,
                           golden: Optional[GoldenStream] = None,
                           workload: str = "trace",
                           warmup: int = 0,
                           mutator=None,
                           context: Optional[Dict[str, Any]] = None,
                           **overrides) -> SimResult:
    """Run *trace* on *machine* with every retirement checked.

    Args:
        machine: One of :data:`repro.harness.runners.MACHINES`.
        trace: The dynamic instruction stream (including any warm-up
            prefix).
        base: Core configuration.
        fgstp: Fg-STP parameters (fgstp machines only).
        golden: Reference stream for the *measured* part of the run;
            defaults to trace fidelity over ``trace[warmup:]``.
        warmup: Warm-up prefix length — warmed instructions never retire
            architecturally, so the golden stream starts after them.
        mutator: Optional :class:`~repro.oracle.mutate.EventMutator`
            injected between machine and oracle (self-test only).
        context: Replay recipe attached to any divergence raised.
        **overrides: Machine-specific constructor arguments.

    Raises:
        OracleDivergence: at the first retirement that disagrees with
            the golden stream (or, on :meth:`finish`, when the stream
            ended early).
    """
    from ..harness.runners import build_machine

    build = partial(build_machine, machine, base, fgstp, **overrides)
    return run_checked(build, list(trace), machine, workload, warmup,
                       golden, mutator, context)


def run_program_under_oracle(program,
                             base,
                             machines: Sequence[str] = (),
                             fgstp=None,
                             workload: str = "program",
                             max_instructions: int = 5_000_000,
                             **overrides
                             ) -> Tuple[GoldenStream, Dict[str, SimResult]]:
    """Execute *program* functionally, then replay its trace on each
    machine under the oracle.

    The golden stream carries full architectural fidelity (register and
    memory values from the shadow interpreter) and its construction
    already cross-checks declared-vs-actual dataflow per instruction.

    Returns:
        ``(golden, results)`` with one :class:`SimResult` per machine.
    """
    from ..harness.runners import MACHINES

    golden = GoldenStream.from_program(program,
                                       max_instructions=max_instructions)
    trace = golden.records
    results: Dict[str, SimResult] = {}
    for machine in (machines or MACHINES):
        results[machine] = run_trace_under_oracle(
            machine, trace, base, fgstp=fgstp, golden=golden,
            workload=workload, **overrides)
    return golden, results
