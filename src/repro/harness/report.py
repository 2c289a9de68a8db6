"""Markdown report generation for experiment results.

Used to (re)generate the measured sections of EXPERIMENTS.md: every
experiment report renders to a fenced plain-text table plus its headline
metrics, under a stable heading per experiment id.  Also renders
``repro sweep`` outcomes (per-job result table, failure list and the
engine's progress/cache metrics).
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional

from ..stats.cpistack import CAUSES, CPIStack, stack_rows
from ..stats.tables import render_table
from .config import ExperimentConfig
from .experiments import REGISTRY, ExperimentReport, run_experiment
from .parallel import SweepOutcome


def report_to_markdown(report: ExperimentReport) -> str:
    """One experiment's markdown section."""
    lines: List[str] = [f"### {report.experiment_id} — {report.title}", ""]
    lines.append("```text")
    lines.append(report.render())
    lines.append("```")
    if report.notes:
        lines.append("")
        lines.append(f"*{report.notes}*")
    lines.append("")
    return "\n".join(lines)


def run_and_render(experiment_ids: Optional[Iterable[str]] = None,
                   config: Optional[ExperimentConfig] = None) -> str:
    """Run experiments and return the combined markdown.

    Args:
        experiment_ids: Ids to run (defaults to the whole registry in
            numeric order).
        config: Sizing for every run.
    """
    if experiment_ids is None:
        experiment_ids = sorted(REGISTRY, key=lambda e: int(e[1:]))
    config = config or ExperimentConfig()
    sections = [report_to_markdown(run_experiment(experiment_id, config))
                for experiment_id in experiment_ids]
    header = (f"_Generated with trace_length={config.trace_length}, "
              f"warmup={config.warmup}, seed={config.seed}._\n")
    return header + "\n" + "\n".join(sections)


def sweep_to_text(outcome: SweepOutcome, precision: int = 3) -> str:
    """Render one sweep outcome: results, failures and engine metrics."""
    rows = []
    for job, result in zip(outcome.jobs, outcome.results):
        if result is None:
            continue
        rows.append([job.machine, job.benchmark, job.base.name,
                     job.config.seed, result.cycles, result.instructions,
                     result.ipc])
    lines: List[str] = []
    if rows:
        lines.append(render_table(
            ["machine", "benchmark", "config", "seed", "cycles",
             "instructions", "ipc"],
            rows, precision=precision, title="sweep results"))
    metrics = outcome.metrics
    lines.append("")
    lines.append(f"engine: mode={metrics.mode} workers={metrics.workers} "
                 f"wall={metrics.wall_seconds:.2f}s")
    lines.append(f"jobs: total={metrics.jobs_total} "
                 f"done={metrics.jobs_done} failed={metrics.jobs_failed} "
                 f"retried={metrics.retries}")
    lines.append(f"cache: result_hits={metrics.result_cache_hits} "
                 f"(hit_rate={metrics.cache_hit_rate:.1%}) "
                 f"traces_reused={metrics.traces_reused} "
                 f"traces_generated={metrics.traces_generated}"
                 + (f" quarantined={metrics.quarantined}"
                    if metrics.quarantined else ""))
    for stage, seconds in sorted(metrics.stage_seconds.items()):
        lines.append(f"stage {stage}: {seconds:.2f}s")
    if outcome.failures:
        lines.append("")
        lines.append(f"failures ({len(outcome.failures)}):")
        lines.extend(f"  {failure}" for failure in outcome.failures)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CPI stacks (see docs/cpistack.md)
# ----------------------------------------------------------------------

def cpistack_table(stack: CPIStack, title: Optional[str] = None,
                   precision: int = 3) -> str:
    """One machine's CPI stack as a plain-text table.

    Rows are the populated causes in taxonomy order; the trailing total
    line restates the ledger invariant (component cycles sum exactly to
    measured cycles).
    """
    rows = stack_rows(stack)
    table = render_table(
        ["cause", "slots", "cycles", "cpi", "pct"], rows,
        precision=precision,
        title=title or (f"{stack.machine} CPI stack "
                        f"({stack.instructions} instructions)"))
    total_cycles = sum(stack.slots.values()) / stack.width
    return (f"{table}\n  total: {total_cycles:g} cycles over "
            f"{stack.cycles} measured "
            f"(cpi={stack.cpi:.{precision}f}, "
            f"stall={stack.stall_fraction:.1%})")


def cpistack_comparison(stacks: Mapping[str, CPIStack],
                        title: str = "CPI components",
                        precision: int = 3) -> str:
    """Side-by-side per-cause CPI components of several machines.

    One row per cause that is populated on any machine, one column per
    machine — the directly comparable view the headline experiments
    reason from (where do Fg-STP's cycles go vs. Core Fusion's?).
    """
    machines = list(stacks)
    components = {name: stacks[name].cpi_by_cause() for name in machines}
    rows: List[List[object]] = []
    for cause in CAUSES:
        if not any(components[name].get(cause) for name in machines):
            continue
        rows.append([cause] + [components[name].get(cause, 0.0)
                               for name in machines])
    rows.append(["total"] + [stacks[name].cpi for name in machines])
    return render_table(["cause"] + machines, rows, precision=precision,
                        title=title)


# ----------------------------------------------------------------------
# Observability renderers (see docs/observability.md)
# ----------------------------------------------------------------------

#: Stage marker characters of the ASCII timeline, in pipeline order.
_STAGE_MARKS = ((0, "F"), (1, "D"), (2, "I"), (3, "C"), (4, "R"))


def timeline_text(events, count: int = 24, width: int = 72,
                  title: Optional[str] = None) -> str:
    """ASCII per-uop timeline of the last *count* lifecycle events.

    One row per retired uop: ``F``etch, ``D``ispatch, ``I``ssue,
    ``C``omplete and ``R``etire markers on a shared, scaled cycle axis
    (later markers overwrite earlier ones in a shared column).
    """
    from ..obs.events import UOP

    uops = [event for event in events
            if event.kind == UOP and event.stages is not None][-count:]
    lines: List[str] = [title or "pipeline timeline"]
    if not uops:
        lines.append("  (no lifecycle events recorded)")
        return "\n".join(lines)
    origin = min(min((c for c in event.stages if c >= 0),
                     default=event.cycle) for event in uops)
    span = max(event.cycle for event in uops) - origin + 1
    scale = max(1, -(-span // width))
    columns = -(-span // scale)
    lines.append(f"  cycles {origin}..{origin + span - 1} "
                 f"({scale} cycle(s)/column; "
                 f"F=fetch D=dispatch I=issue C=complete R=retire)")
    for event in uops:
        row = ["."] * columns
        for position, mark in _STAGE_MARKS:
            when = event.stages[position]
            if when >= 0:
                row[(when - origin) // scale] = mark
        replica = "*" if event.replica else " "
        lines.append(f"  seq={event.seq:<7d} c{event.core}{replica} "
                     f"{event.op:<7s} |{''.join(row)}|")
    return "\n".join(lines)


def occupancy_text(events, buckets: int = 24, width: int = 50,
                   title: Optional[str] = None) -> str:
    """ASCII commit-throughput histogram over the traced cycle range.

    Retirements are bucketed by commit cycle; each bar is scaled to the
    busiest bucket, exposing stall regions (empty bars) and bursts.
    """
    from ..obs.events import UOP

    commits = [event.cycle for event in events if event.kind == UOP]
    lines: List[str] = [title or "commit occupancy"]
    if not commits:
        lines.append("  (no lifecycle events recorded)")
        return "\n".join(lines)
    lo, hi = min(commits), max(commits)
    span = hi - lo + 1
    bucket_cycles = max(1, -(-span // buckets))
    counts = [0] * (-(-span // bucket_cycles))
    for cycle in commits:
        counts[(cycle - lo) // bucket_cycles] += 1
    peak = max(counts)
    lines.append(f"  cycles {lo}..{hi}, {bucket_cycles} cycle(s)/bucket, "
                 f"peak {peak} commit(s)")
    for index, value in enumerate(counts):
        bar = "#" * (round(width * value / peak) if peak else 0)
        start = lo + index * bucket_cycles
        lines.append(f"  {start:>9d} |{bar:<{width}s}| {value}")
    return "\n".join(lines)


def metrics_table(registry, title: Optional[str] = None,
                  precision: int = 3) -> str:
    """Render a :class:`~repro.obs.metrics.MetricsRegistry` as a table.

    Each row is one metric with its type and value; counters and gauges
    leave the ``detail`` column empty.
    """
    rows: List[List[object]] = []
    for name in registry.names():
        metric = registry.get(name)
        rows.append([name, metric.kind, metric.value, ""])
    return render_table(["metric", "type", "value", "detail"], rows,
                        precision=precision,
                        title=title or "metrics registry")

