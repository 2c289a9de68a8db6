"""The machine workloads: whole-trace simulations timed inside ``run``.

A *cell* is one machine simulating one trace to completion.
``fgstp_medium`` runs the two Fg-STP machines and ``baseline_medium``
the two baselines, each over the same gcc / mcf / milc traces on the
medium core with functional warm-up.

Every cell runs in timed rounds until the time budget is spent; a
per-cell median over the rounds is what the end-to-end metrics are built
from.  The first round's result is the cell's reference, and every later
run of the cell is checked against it.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.fgstp.params import FgStpParams
from repro.harness.runners import build_machine
from repro.stats.cpistack import CAUSES
from repro.uarch.params import core_config

import spans

#: Machines per machine workload.  The partitioner, value queues,
#: dependence speculation and adaptive driver only work in the first.
WORKLOADS = {
    "fgstp_medium": ("fgstp", "fgstp-adaptive"),
    "baseline_medium": ("single", "corefusion"),
}
#: Branchy integer, memory-latency-bound, heavy inter-core traffic.
BENCHMARKS = ("gcc", "mcf", "milc")
CONFIG = "medium"
LENGTH = 8_000
WARMUP = 2_000
MEASURED = LENGTH - WARMUP
#: Generator seeds per benchmark.  One generator seed moves simulated
#: IPC (and with it host time) by about 7%, the same way for every
#: benchmark, so a run averages over several.
TRACE_SEEDS = 4
#: Spacing of a run's generator seeds, so that runs with nearby
#: ``--seed`` values share no trace.
SEED_STRIDE = 1_000_003
#: Timed rounds run even when the time budget is already spent.
MIN_ROUNDS = 3

Cell = Tuple[str, str, int]  # (machine, benchmark, generator seed)


def trace_seeds(seed: int) -> List[int]:
    """The generator seeds of a run with ``--seed`` *seed*."""
    return [seed + index * SEED_STRIDE for index in range(TRACE_SEEDS)]


class Tally:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: List[str] = []

    def check(self, label: str, problems: Iterable[str]) -> bool:
        """Count one operation; True when it had no problems."""
        self.attempted += 1
        problems = list(problems)
        if problems:
            self.problems.append(f"{label}: {'; '.join(problems)}")
        return not problems

    @property
    def failed(self) -> int:
        return len(self.problems)


def fingerprint(result) -> str:
    """Canonical JSON of a result: equal strings mean equal results
    (a pickled result and one read back from JSON compare equal)."""
    return json.dumps(result.as_dict(), sort_keys=True)


def invariant_problems(result, measured: int) -> List[str]:
    """Checks every simulated result must pass on its own."""
    problems = []
    if result.instructions != measured:
        problems.append(f"retired {result.instructions} instructions, "
                        f"expected {measured}")
    stack = result.extra.get("cpistack")
    if stack is None:
        problems.append("no cpistack")
    else:
        slots = sum(stack["slots"].values())
        if slots != stack["cycles"] * stack["width"]:
            problems.append(f"CPI ledger: {slots} slots != "
                            f"{stack['cycles']} cycles x {stack['width']}")
        if stack["cycles"] != result.cycles:
            problems.append(f"CPI stack covers {stack['cycles']} cycles "
                            f"of {result.cycles}")
    return problems


def run_cell(cell: Cell, trace, patches: Sequence = ()):
    """Build and run one cell, with *patches* applied throughout.

    Returns ``(result, run_s, total_s, model)``: ``run_s`` covers
    ``Machine.run`` only, ``total_s`` also machine construction.
    """
    machine, benchmark, _ = cell
    with spans.patched(list(patches)):
        started = time.perf_counter()
        model = build_machine(machine, core_config(CONFIG), FgStpParams())
        built = time.perf_counter()
        result = model.run(trace, workload=benchmark, warmup=WARMUP)
        finished = time.perf_counter()
    return result, finished - built, finished - started, model


def _region_counter(counter: List[int]):
    """Wrapper factory counting the measured instructions handed to a
    machine's ``run`` (the adaptive machine's probes and regions)."""
    def make(original):
        def run(self, trace, workload="trace", warmup=0, **kwargs):
            counter[0] += len(trace) - warmup
            return original(self, trace, workload=workload, warmup=warmup,
                            **kwargs)
        return run
    return make


def measure(workload: str, traces: Dict[Tuple[str, int], list],
            seconds: float, traced: bool, host
            ) -> Tuple[Dict[str, float], Tally, str]:
    """Run *workload*'s cells for *seconds*; returns (metrics, tally,
    per-layer table).  Traced rounds alternate with untraced ones, and
    every time is in reference seconds (see ``hostspeed``)."""
    from repro.fgstp.orchestrator import FgStpMachine
    from repro.uarch.pipeline.machine import SingleCoreMachine

    machines = WORKLOADS[workload]
    cells = [(machine,) + key for machine in machines for key in traces]
    tally = Tally()
    reference: Dict[Cell, str] = {}
    finished = {}  # cell -> (result, skipped cycles or None)
    run_s: Dict[Cell, List[float]] = defaultdict(list)
    total_s: Dict[Cell, List[float]] = defaultdict(list)
    traced_s: Dict[Cell, List[float]] = defaultdict(list)
    recorders = {machine: spans.SpanRecorder() for machine in machines}
    region_instr = [0]
    traced_rounds = 0
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds += 1
        for cell in cells:
            # The first round's results are the references later rounds
            # must reproduce; its times count like any other round's.
            outcome = _attempt(tally, host, cell, traces[cell[1:]],
                               reference.get(cell))
            if outcome is None:
                continue
            if rounds == 1:
                reference[cell] = fingerprint(outcome[0])
                finished[cell] = (outcome[0],
                                  getattr(outcome[3], "skipped_cycles", None))
            run_s[cell].append(outcome[1])
            total_s[cell].append(outcome[2])
        cells = list(finished)
        if not traced:
            continue
        traced_rounds += 1
        for cell in cells:
            patches = spans.layer_patches(recorders[cell[0]])
            if cell[0] == "fgstp-adaptive":
                counter = _region_counter(region_instr)
                patches += [(SingleCoreMachine, "run", counter),
                            (FgStpMachine, "run", counter)]
            outcome = _attempt(tally, host, cell, traces[cell[1:]],
                               reference[cell], patches)
            if outcome is not None:
                traced_s[cell].append(outcome[1])

    metrics = end_to_end(finished, run_s, total_s)
    if not traced:
        return metrics, tally, ""
    layers = per_machine_ips(machines, finished, run_s)
    layers.update(exact_counts(
        (cell[0], result, skipped)
        for cell, (result, skipped) in finished.items()))
    layers.update(traced_layers(cells, recorders, run_s, traced_s,
                                traced_rounds))
    adaptive = [cell for cell in cells if cell[0] == "fgstp-adaptive"]
    if adaptive and traced_rounds:
        layers["adaptive.sim_instr_per_instr"] = (
            region_instr[0] / traced_rounds / (len(adaptive) * MEASURED))
    table = layer_table(machines, recorders, traced_rounds)
    return {**metrics, **layers}, tally, table


def _attempt(tally: Tally, host, cell: Cell, trace, expected, patches=()):
    """:func:`run_cell` on *host*, checked: the cell's invariants when
    *expected* is ``None``, else equality with that reference
    fingerprint.  Returns ``run_cell``'s tuple with both times in
    reference seconds, or ``None`` on any failure."""
    machine, benchmark, seed = cell
    label = f"{machine}/{benchmark}/s{seed}" + (" traced" if patches else "")
    try:
        (result, run_s, total_s, model), factor = host.timed(
            run_cell, cell, trace, patches)
    except Exception as exc:  # a failed run counts against error_rate
        tally.check(label, [f"raised {type(exc).__name__}: {exc}"])
        return None
    outcome = (result, run_s * factor, total_s * factor, model)
    if expected is None:
        problems = invariant_problems(result, MEASURED)
    elif fingerprint(result) != expected:
        problems = ["result differs from the cell's reference run"]
    else:
        problems = []
    return outcome if tally.check(label, problems) else None


def _pass_seconds(cells: Iterable[Cell],
                  samples: Dict[Cell, List[float]]) -> float:
    """Median seconds per cell, summed over *cells*."""
    return sum(statistics.median(samples[cell]) for cell in cells
               if samples.get(cell))


def end_to_end(finished, run_s, total_s) -> Dict[str, float]:
    instructions = sum(result.instructions for result, _ in finished.values())
    cycles = sum(result.cycles for result, _ in finished.values())
    run = _pass_seconds(finished, run_s)
    return {
        "sim_ips": instructions / run,
        "sim_kcps": cycles / run / 1000.0,
        "sim_ipc": instructions / cycles,
        "jobs_per_s": len(finished) / _pass_seconds(finished, total_s),
    }


def per_machine_ips(machines, finished, run_s) -> Dict[str, float]:
    ips = {}
    for machine in machines:
        cells = [cell for cell in finished if cell[0] == machine]
        run = _pass_seconds(cells, run_s)
        if run:
            ips[f"ips.{machine}"] = len(cells) * MEASURED / run
    return ips


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def exact_counts(finished) -> Dict[str, float]:
    """Simulated counts aggregated over ``(machine, result, skipped)``.

    Ratios use the same bases as the simulator's own statistics, so a
    single cell reproduces what ``repro simulate`` prints for it.
    """
    total = defaultdict(float)
    slots = defaultdict(int)
    for machine, result, skipped in finished:
        extra = result.extra
        stack = extra["cpistack"]
        total["slots"] += stack["cycles"] * stack["width"]
        for cause, count in stack["slots"].items():
            slots[cause] += count
        branch = extra.get("branch")
        if branch:
            total["lookups"] += branch["lookups"]
            total["mispredictions"] += branch["mispredictions"]
        caches = extra.get("caches")
        if caches:
            # fgstp's two hierarchies share one L2: count it once.
            levels = list(caches.values()) if "core0" in caches else [caches]
            for index, level in enumerate(levels):
                total["l1d_access"] += level["l1d"]["accesses"]
                total["l1d_miss"] += level["l1d"]["misses"]
                if index == 0:
                    total["l2_access"] += level["l2"]["accesses"]
                    total["l2_miss"] += level["l2"]["misses"]
        if machine == "fgstp":
            partition = extra["partition"]
            total["fgstp_instr"] += result.instructions
            total["fgstp_cycles"] += result.cycles
            total["assigned"] += partition["assigned"]
            total["comm_values"] += partition["comm_values"]
            total["replicated"] += partition["replicated"]
            total["squashed_uops"] += extra["squashed_uops"]
            total["fgstp_skipped"] += skipped or 0
            for queue in extra["queues"].values():
                total["sends"] += queue["sends"]
                total["contention"] += queue["contention_cycles"]
        elif machine == "fgstp-adaptive":
            total["switches"] += extra["switches"]
            total["fgstp_regions"] += extra["fgstp_regions"]
        elif skipped is not None:
            total["core_cycles"] += result.cycles
            total["core_skipped"] += skipped
    counts = {
        "partitioner.assigned_per_instr":
            _ratio(total["assigned"], total["fgstp_instr"]),
        "partitioner.comm_per_100_instr":
            100.0 * _ratio(total["comm_values"], total["assigned"]),
        "partitioner.replication_rate":
            _ratio(total["replicated"], total["assigned"]),
        "comm.sends": total["sends"],
        "comm.contention_cycles": total["contention"],
        "orchestrator.squashed_uops_per_instr":
            _ratio(total["squashed_uops"], total["fgstp_instr"]),
        "orchestrator.skipped_cycle_frac":
            _ratio(total["fgstp_skipped"], total["fgstp_cycles"]),
        "adaptive.switches": total["switches"],
        "adaptive.fgstp_regions": total["fgstp_regions"],
        "core.skipped_cycle_frac":
            _ratio(total["core_skipped"], total["core_cycles"]),
        "cache.l1d_miss_rate": _ratio(total["l1d_miss"], total["l1d_access"]),
        "cache.l2_miss_rate": _ratio(total["l2_miss"], total["l2_access"]),
        "branch.mispredict_rate":
            _ratio(total["mispredictions"], total["lookups"]),
    }
    for cause in CAUSES:
        counts[f"cpi.{cause}"] = _ratio(slots[cause], total["slots"])
    return counts


#: Traced self-time share metrics and the span each one reads.
SHARES = {
    "partitioner.share": "partitioner",
    "comm.deliver_share": "comm.deliver",
    "comm.send_share": "comm.send",
    "orchestrator.self_share": "orchestrator",
    "adaptive.self_share": "adaptive",
    "single.self_share": "single",
    "corefusion.self_share": "corefusion",
    "core.commit_share": "core.commit",
    "core.complete_share": "core.complete",
    "core.issue_share": "core.issue",
    "core.dispatch_share": "core.dispatch",
    "core.cpi_attr_share": "core.cpi_attr",
    "core.skip_ahead_share": "core.skip_ahead",
    "cache.share": "cache",
    "branch.share": "branch",
    "warmup.share": "warmup",
}
#: Traced call-count metrics (calls per pass over the workload's cells).
CALLS = {
    "partitioner.calls": "partitioner",
    "core.commit_calls": "core.commit",
    "core.complete_calls": "core.complete",
    "core.issue_calls": "core.issue",
    "core.dispatch_calls": "core.dispatch",
    "core.cpi_attr_calls": "core.cpi_attr",
    "core.skip_ahead_calls": "core.skip_ahead",
    "cache.calls": "cache",
}


def traced_layers(cells, recorders, run_s, traced_s,
                  traced_rounds) -> Dict[str, float]:
    """Self-time shares of the traced ``Machine.run`` host time and call
    counts per pass.  The machine ``run`` spans enclose everything else,
    so the self times of all spans add up to that host time."""
    total = spans.SpanRecorder()
    for recorder in recorders.values():
        total.merge(recorder)
    base = sum(total.self_s.values())
    layers = {metric: _ratio(total.self_s[span], base)
              for metric, span in SHARES.items()}
    layers.update({metric: _ratio(total.calls[span], traced_rounds)
                   for metric, span in CALLS.items()})
    untraced = _pass_seconds(cells, run_s)
    traced = _pass_seconds(cells, traced_s)
    layers["traced_run_s"] = traced
    layers["trace_overhead"] = _ratio(traced, untraced) - 1.0
    return layers


def layer_table(machines, recorders, traced_rounds) -> str:
    """Human-readable self-time table: one share/calls-per-pass column
    pair per machine; the base is each machine's traced ``Machine.run``
    host time over all traced rounds."""
    bases = {machine: sum(recorders[machine].self_s.values())
             for machine in machines}
    header = f"{'span (self time)':18s}" + "".join(
        f"{machine + ' share':>22s}{'calls':>12s}" for machine in machines)
    lines = [header]
    for label in spans.SPAN_NAMES:
        row = f"{label:18s}"
        for machine in machines:
            recorder = recorders[machine]
            share = _ratio(recorder.self_s.get(label, 0.0), bases[machine])
            calls = recorder.calls.get(label, 0) // max(traced_rounds, 1)
            row += f"{100 * share:21.1f}%{calls:12d}"
        lines.append(row)
    lines.append(f"{'base: host s':18s}" + "".join(
        f"{bases[machine]:21.2f}s{'':12s}" for machine in machines))
    return "\n".join(lines)


def generate(seed: int) -> Dict[Tuple[str, int], list]:
    """The traces of a run with ``--seed`` *seed*, keyed by
    ``(benchmark, generator seed)`` (shared by both workloads)."""
    from repro.workloads.generator import generate_trace
    return {(name, trace_seed): generate_trace(name, LENGTH, trace_seed)
            for name in BENCHMARKS for trace_seed in trace_seeds(seed)}


def timed_warmup_rps(traces: Dict[Tuple[str, int], list], host,
                     reps: int = 3) -> float:
    """Records per reference second of ``warm_state`` over the warm-up
    prefixes, on fresh medium-core state each time (median of *reps*)."""
    from repro.uarch.branch.btb import FrontEndPredictor
    from repro.uarch.cache.hierarchy import CacheHierarchy
    from repro.uarch.warmup import warm_state

    base = core_config(CONFIG)

    def warm_all():
        for trace in traces.values():
            warm_state(trace[:WARMUP], CacheHierarchy(base),
                       FrontEndPredictor(base.branch),
                       line_bytes=base.l1i.line_bytes)

    seconds = [host.seconds(warm_all)[1] for _ in range(reps)]
    return len(traces) * WARMUP / statistics.median(seconds)
