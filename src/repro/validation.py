"""Cross-model validation: relations the machines' runs must satisfy.

The commit-stream oracle proves *what* a machine retires; these
relations check its cycle counts against other runs on the same trace.
Running is split from judging: :func:`battery_runs` names every
simulation the relations read as a job, :func:`run_battery` runs each
one once per trace (outside the sweep engine, so reruns do simulate),
and each relation in :data:`RELATIONS` is a function of the outcomes — a
:class:`~repro.stats.result.SimResult` or the
:class:`~repro.integrity.errors.SimulationError` a run raised — so a
test can hand it canned ones.  ``repro validate`` (:func:`validate_all`)
and ``repro fuzz --metamorphic`` both run this battery.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Union

from .fgstp.params import FgStpParams
from .harness.config import ExperimentConfig
from .harness.parallel import SweepJob, execute_job, make_job
from .integrity.errors import SimulationError, SimulationHang
from .integrity.forensics import write_crash_dump
from .stats.result import SimResult
from .uarch.params import CoreParams, small_core_config
from .workloads.generator import generate_trace

#: A run's outcome: its result, or the structured failure it raised.
Outcome = Union[SimResult, SimulationError]

#: The machines most relations compare, in report order.
MACHINES = ("single", "corefusion", "fgstp")
#: Inter-core queue latencies the monotonicity relation steps through.
LATENCIES = (1, 3, 6)
#: The run whose failure is expected: Fg-STP with its queues stuck.
LIVELOCK_RUN = "fgstp/livelock"
#: Trace records the livelock run replays.
LIVELOCK_RECORDS = 3_000
#: Relative slack of the degenerate-policy equivalence.
POLICY_TOLERANCE = 0.10
#: Relative slack of the monotonicity relations. The models are
#: deterministic but not perfectly monotonic (a bigger window can shift
#: one branch resolution and ripple), so they assert trends, not totals.
DEFAULT_TOLERANCE = 0.02


@dataclass
class ValidationResult:
    """Outcome of one relation."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def battery_runs(benchmark: str, length: int, seed: int,
                 base: CoreParams) -> Dict[str, SweepJob]:
    """Every run the relations read, by name: an oracle-checked job on
    the core *base* replaying *benchmark*'s *length*-record trace (the
    livelock run's first :data:`LIVELOCK_RECORDS`) with no warm-up."""
    config = ExperimentConfig(trace_length=length, warmup=0, seed=seed)
    wide = base.with_(name=f"{base.name}-x2win",
                      rob_entries=2 * base.rob_entries,
                      iq_entries=2 * base.iq_entries,
                      lsq_entries=2 * base.lsq_entries)

    def job(machine, core=base, **options):
        return make_job(machine, benchmark, core, config, oracle=True,
                        **options)

    runs = {machine: job(machine) for machine in MACHINES}
    runs.update({f"{machine}/rerun": job(machine) for machine in MACHINES})
    runs["fgstp/policy-single"] = job(
        "fgstp", fgstp=FgStpParams(partition_latency=1, policy="single"))
    runs[LIVELOCK_RUN] = dataclasses.replace(
        job("fgstp", watchdog_window=2_000), chaos="stuck_queue:after=0",
        config=config.with_(trace_length=min(length, LIVELOCK_RECORDS)))
    runs.update({f"{machine}/window-x2": job(machine, wide)
                 for machine in ("single", "fgstp")})
    runs.update({f"fgstp/latency-{latency}": job(
        "fgstp", fgstp=FgStpParams(queue_latency=latency))
        for latency in LATENCIES})
    return runs


class Setting(NamedTuple):
    """What the relations judge against besides the outcomes."""

    base: CoreParams
    #: Records in the trace every run replays.
    length: int
    tolerance: float = DEFAULT_TOLERANCE


def identical_committed_work(setting, *results):
    """Every machine retires exactly the trace's instruction count."""
    counts = {machine: result.instructions
              for machine, result in zip(MACHINES, results)}
    return set(counts.values()) == {setting.length}, f"counts={counts}"


def single_policy_equivalence(setting, single, degenerate):
    """Fg-STP routing everything to core 0 ~= the single-core machine."""
    delta = abs(degenerate.cycles - single.cycles) / max(single.cycles, 1)
    return delta <= POLICY_TOLERANCE, (
        f"single={single.cycles} fgstp/one-core={degenerate.cycles} "
        f"delta={delta:.3f}")


def ipc_bounds(setting, *results):
    """No machine exceeds its aggregate commit bandwidth."""
    width = setting.base.commit_width
    bounds = dict(zip(MACHINES, (width, 2 * width, 2 * width)))
    violations = {machine: (result.ipc, bounds[machine])
                  for machine, result in zip(MACHINES, results)
                  if not 0 < result.ipc <= bounds[machine]}
    return not violations, (f"violations={violations}" if violations
                            else "all within bounds")


def determinism(setting, *results):
    """A second fresh run of each machine gives identical cycles."""
    reruns = results[len(MACHINES):]
    mismatched = {machine: (first.cycles, second.cycles)
                  for machine, first, second in zip(MACHINES, results, reruns)
                  if first.cycles != second.cycles}
    return not mismatched, (f"mismatched={mismatched}" if mismatched
                            else "all deterministic")


def no_catastrophic_slowdown(setting, single, fusion, fgstp):
    """Two-core schemes stay within 2x of one core even at worst: they
    may lose on hostile workloads, but a blow-up beyond 2x indicates a
    model bug such as a commit-gate deadlock resolved by the cycle guard.
    """
    worst = max(fusion.cycles, fgstp.cycles) / max(single.cycles, 1)
    return worst < 2.0, (
        f"single={single.cycles} corefusion={fusion.cycles} "
        f"fgstp={fgstp.cycles} worst_ratio={worst:.2f}")


def watchdog_livelock_detection(setting, outcome):
    """An injected inter-core livelock trips the watchdog quickly: with
    its value queues stuck from cycle 0, Fg-STP must raise a structured
    hang well under 10k cycles, not spin to the ``max_cycles`` ceiling.
    """
    if isinstance(outcome, SimulationHang):
        probe = min(setting.length, LIVELOCK_RECORDS)
        return outcome.cycles < 10_000, (
            f"{outcome.failure_class} raised at cycle {outcome.cycles} "
            f"with {outcome.instructions}/{probe} committed")
    if isinstance(outcome, SimulationError):
        return False, (f"unexpected failure class "
                       f"{outcome.failure_class}: {outcome}")
    return False, "run completed despite a stuck inter-core queue"


def window_scaling(setting, small, big):
    """A twice larger OOO window (ROB / IQ / LSQ) must not be notably
    slower."""
    limit = small.cycles * (1.0 + setting.tolerance)
    rob = setting.base.rob_entries
    return big.cycles <= limit, (
        f"{rob}-entry ROB: {small.cycles} cycles, "
        f"{2 * rob}-entry ROB: {big.cycles} cycles (limit {limit:.0f})")


def latency_monotonic(setting, *results):
    """Raising Fg-STP's queue latency must not speed the machine up:
    cross-core communication is what its whole premise costs."""
    cycles = [result.cycles for result in results]
    violations = [
        f"{LATENCIES[i]}->{LATENCIES[i + 1]} cycles "
        f"{cycles[i]}->{cycles[i + 1]}"
        for i in range(len(cycles) - 1)
        if cycles[i + 1] < cycles[i] * (1.0 - setting.tolerance)
    ]
    return not violations, (
        f"latency {list(LATENCIES)} -> cycles {cycles}"
        + (f"; violations: {'; '.join(violations)}" if violations else ""))


#: Relation name -> (the runs it reads, the relation).  A relation takes
#: the :class:`Setting` and the outcomes of those runs, in that order,
#: and returns ``(passed, detail)``.
RELATIONS = {
    "identical_committed_work": (MACHINES, identical_committed_work),
    "fgstp_single_policy_equivalence": (
        ("single", "fgstp/policy-single"), single_policy_equivalence),
    "ipc_bounds": (MACHINES, ipc_bounds),
    "determinism": (
        MACHINES + tuple(f"{machine}/rerun" for machine in MACHINES),
        determinism),
    "no_catastrophic_slowdown": (MACHINES, no_catastrophic_slowdown),
    "watchdog_livelock_detection": ((LIVELOCK_RUN,),
                                    watchdog_livelock_detection),
    "window-scaling-single": (("single", "single/window-x2"),
                              window_scaling),
    "window-scaling-fgstp": (("fgstp", "fgstp/window-x2"), window_scaling),
    "intercore-latency-monotonic": (
        tuple(f"fgstp/latency-{latency}" for latency in LATENCIES),
        latency_monotonic),
}


def judge(outcomes: Dict[str, Outcome], setting: Setting,
          dumps: Optional[Dict[str, Path]] = None
          ) -> Dict[str, ValidationResult]:
    """Apply every relation to the outcomes of :func:`battery_runs`.

    A relation fails without being applied when a run it reads raised
    — except the livelock run, whose failure is what its relation
    judges.  The failed relation's detail names each such run and, when
    *dumps* holds one, the run's crash dump.
    """
    dumps = dumps or {}
    results = {}
    for name, (reads, relation) in RELATIONS.items():
        failed = [run for run in reads if run != LIVELOCK_RUN
                  and isinstance(outcomes[run], SimulationError)]
        if failed:
            passed, detail = False, "; ".join(
                f"{run}: {outcomes[run].failure_class}: {outcomes[run]}"
                + (f" [crash dump: {dumps[run]}]" if run in dumps else "")
                for run in failed)
        else:
            passed, detail = relation(setting,
                                      *(outcomes[run] for run in reads))
        results[name] = ValidationResult(name, passed, detail)
    return results


def run_battery(benchmark: str, length: int, seed: int, base: CoreParams,
                tolerance: float = DEFAULT_TOLERANCE,
                crash_dir: Optional[Union[str, Path]] = None
                ) -> Dict[str, ValidationResult]:
    """Run every job of :func:`battery_runs` once, then judge them.

    A run that raises a :class:`SimulationError` fails every relation
    that reads it.  With *crash_dir*, it leaves one crash dump whose
    replay recipe is its job plus its name (``run``); the livelock
    run's expected hang leaves none.
    """
    trace = generate_trace(benchmark, length, seed)
    outcomes: Dict[str, Outcome] = {}
    dumps: Dict[str, Path] = {}
    for name, job in battery_runs(benchmark, length, seed, base).items():
        try:
            # A generated trace's prefix is the shorter trace, so the
            # livelock job's slice is the trace its recipe names.
            outcomes[name] = execute_job(job,
                                         trace[:job.config.trace_length])
        except SimulationError as error:
            outcomes[name] = error
            expected = name == LIVELOCK_RUN and isinstance(error,
                                                           SimulationHang)
            if crash_dir is None or expected:
                continue
            try:
                dumps[name] = write_crash_dump(
                    error, directory=Path(crash_dir),
                    context={**job.as_dict(), "run": name})
            except OSError:
                pass
    return judge(outcomes, Setting(base, length, tolerance), dumps)


def validate_all(benchmark: str = "gcc", length: int = 4000, seed: int = 1,
                 crash_dir: Optional[Union[str, Path]] = None
                 ) -> Dict[str, ValidationResult]:
    """Run the battery on one benchmark on the small core; returns
    relation name -> result (see :func:`run_battery`)."""
    return run_battery(benchmark, length, seed, small_core_config(),
                       crash_dir=crash_dir)
