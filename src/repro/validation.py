"""Cross-model validation: invariants the machines must satisfy.

These are the structural sanity checks behind every reported number —
relationships between the models that must hold regardless of workload
or parameters.  They run as part of the test suite and on demand via
``python -m repro`` workflows.

Each check returns a :class:`ValidationResult`; :func:`validate_all`
runs the default battery on a given benchmark and reports failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from .corefusion.machine import simulate_core_fusion
from .fgstp.orchestrator import FgStpMachine, simulate_fgstp
from .fgstp.params import FgStpParams
from .integrity.chaos import ChaosSpec, apply_chaos
from .integrity.errors import SimulationError, SimulationHang
from .integrity.forensics import replay_context, write_crash_dump
from .trace.record import TraceRecord
from .uarch.params import CoreParams, small_core_config
from .uarch.pipeline.machine import simulate_single_core
from .workloads.generator import generate_trace


@dataclass
class ValidationResult:
    """Outcome of one invariant check."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def check_all_machines_commit_identical_work(
        trace: Sequence[TraceRecord], base: CoreParams
) -> ValidationResult:
    """Every machine retires exactly the trace's instruction count."""
    counts = {
        "single": simulate_single_core(trace, base).instructions,
        "corefusion": simulate_core_fusion(trace, base).instructions,
        "fgstp": simulate_fgstp(trace, base).instructions,
    }
    passed = len(set(counts.values())) == 1 \
        and counts["single"] == len(trace)
    return ValidationResult(
        "identical_committed_work", passed, f"counts={counts}")


def check_fgstp_single_policy_matches_single_core(
        trace: Sequence[TraceRecord], base: CoreParams,
        tolerance: float = 0.10) -> ValidationResult:
    """Fg-STP routing everything to core 0 ~= the single-core machine."""
    single = simulate_single_core(trace, base)
    degenerate = FgStpMachine(
        base, FgStpParams(partition_latency=1),
        policy="single").run(trace)
    delta = abs(degenerate.cycles - single.cycles) / max(single.cycles, 1)
    return ValidationResult(
        "fgstp_single_policy_equivalence", delta <= tolerance,
        f"single={single.cycles} fgstp/one-core={degenerate.cycles} "
        f"delta={delta:.3f}")


def check_ipc_bounds(trace: Sequence[TraceRecord],
                     base: CoreParams) -> ValidationResult:
    """No machine exceeds its aggregate commit bandwidth."""
    results = {
        "single": (simulate_single_core(trace, base).ipc,
                   base.commit_width),
        "corefusion": (simulate_core_fusion(trace, base).ipc,
                       2 * base.commit_width),
        "fgstp": (simulate_fgstp(trace, base).ipc,
                  2 * base.commit_width),
    }
    violations = {name: (ipc, bound) for name, (ipc, bound)
                  in results.items() if ipc > bound or ipc <= 0}
    return ValidationResult(
        "ipc_bounds", not violations,
        f"violations={violations}" if violations else "all within bounds")


def check_determinism(trace: Sequence[TraceRecord],
                      base: CoreParams) -> ValidationResult:
    """Re-running any machine on the same trace gives identical cycles."""
    pairs = {
        "single": (simulate_single_core(trace, base).cycles,
                   simulate_single_core(trace, base).cycles),
        "corefusion": (simulate_core_fusion(trace, base).cycles,
                       simulate_core_fusion(trace, base).cycles),
        "fgstp": (simulate_fgstp(trace, base).cycles,
                  simulate_fgstp(trace, base).cycles),
    }
    mismatched = {name: pair for name, pair in pairs.items()
                  if pair[0] != pair[1]}
    return ValidationResult(
        "determinism", not mismatched,
        f"mismatched={mismatched}" if mismatched else "all deterministic")


def check_more_resources_never_catastrophic(
        trace: Sequence[TraceRecord], base: CoreParams,
        tolerance: float = 0.5) -> ValidationResult:
    """Two-core schemes stay within 2x of one core even at worst.

    (They may lose on hostile workloads — fusion overheads, queue
    latency — but a blow-up beyond 2x indicates a model bug such as a
    commit-gate deadlock resolved by the cycle guard.)
    """
    single = simulate_single_core(trace, base).cycles
    fusion = simulate_core_fusion(trace, base).cycles
    fgstp = simulate_fgstp(trace, base).cycles
    worst = max(fusion, fgstp) / max(single, 1)
    return ValidationResult(
        "no_catastrophic_slowdown", worst < 2.0,
        f"single={single} corefusion={fusion} fgstp={fgstp} "
        f"worst_ratio={worst:.2f}")


def check_watchdog_fires_on_injected_livelock(
        trace: Sequence[TraceRecord], base: CoreParams
) -> ValidationResult:
    """An injected inter-core livelock trips the watchdog quickly.

    A stuck value queue (delivery credits jammed from cycle 0) starves
    the Fg-STP commit gate; the forward-progress watchdog must raise a
    structured hang within well under 10k cycles — not spin to the 200M
    ``max_cycles`` ceiling.  This is the integrity layer's end-to-end
    self test, run as part of the standard battery.
    """
    machine = FgStpMachine(base, watchdog_window=2_000)
    apply_chaos(machine, ChaosSpec.parse("stuck_queue:after=0"))
    probe = list(trace[:3_000])
    try:
        machine.run(probe, workload="livelock-probe")
    except SimulationHang as error:
        passed = error.cycles < 10_000
        return ValidationResult(
            "watchdog_livelock_detection", passed,
            f"{error.failure_class} raised at cycle {error.cycles} "
            f"with {error.instructions}/{len(probe)} committed")
    except SimulationError as error:
        return ValidationResult(
            "watchdog_livelock_detection", False,
            f"unexpected failure class {error.failure_class}: {error}")
    return ValidationResult(
        "watchdog_livelock_detection", False,
        "run completed despite a stuck inter-core queue")


#: The default battery.
CHECKS: List[Callable] = [
    check_all_machines_commit_identical_work,
    check_fgstp_single_policy_matches_single_core,
    check_ipc_bounds,
    check_determinism,
    check_more_resources_never_catastrophic,
    check_watchdog_fires_on_injected_livelock,
]


def validate_all(benchmark: str = "gcc", length: int = 4000,
                 base: Optional[CoreParams] = None,
                 seed: int = 1,
                 crash_dir: Optional[Union[str, Path]] = None
                 ) -> Dict[str, ValidationResult]:
    """Run the full battery on one benchmark; returns name -> result.

    A check that dies with a :class:`SimulationError` (a machine hung or
    overflowed *inside* the check) is reported as a failed result rather
    than aborting the battery; when *crash_dir* is given the error's
    snapshot is serialized there and the result's detail points at it.
    """
    base = base or small_core_config()
    trace = generate_trace(benchmark, length, seed)
    results = {}
    for check in CHECKS:
        try:
            result = check(trace, base)
        except SimulationError as error:
            detail = f"{error.failure_class}: {error}"
            if crash_dir is not None:
                try:
                    dump = write_crash_dump(
                        error, directory=Path(crash_dir),
                        context=replay_context(
                            error.machine, benchmark, base.name, length,
                            0, seed, check=check.__name__),
                        workload=benchmark)
                    detail += f" [crash dump: {dump}]"
                except OSError:
                    pass
            result = ValidationResult(check.__name__, False, detail)
        results[result.name] = result
    return results
