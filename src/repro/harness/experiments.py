"""The experiment registry: one function per reproduced table/figure.

Each experiment function takes an :class:`ExperimentConfig` and returns
an :class:`ExperimentReport` — the headers/rows the paper's table or
figure reports, plus derived headline metrics.  ``REGISTRY`` maps the
stable experiment ids (E1..E11, see DESIGN.md) to these functions; the
``benchmarks/`` tree regenerates every entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..corefusion.machine import default_frontend_overhead
from ..fgstp.params import FgStpParams
from ..stats.aggregate import geomean
from ..stats.tables import render_table
from ..workloads.profiles import SPEC_FP_NAMES, SPEC_INT_NAMES
from ..workloads.suite import suite_names
from .config import REPRESENTATIVE, ExperimentConfig
from .parallel import make_job, run_jobs, run_suites
from .runners import config_for


@dataclass
class ExperimentReport:
    """Result of one experiment: a renderable table plus headline metrics.

    Attributes:
        experiment_id: Stable id (``"E1"``...).
        title: Human-readable description.
        headers: Table column names.
        rows: Table rows (one per benchmark / sweep point).
        metrics: Headline scalars (geomean speedups etc.).
        notes: Free-form provenance notes.
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[Any]]
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def render(self, precision: int = 3) -> str:
        table = render_table(self.headers, self.rows, precision=precision,
                             title=f"{self.experiment_id}: {self.title}")
        if self.metrics:
            metric_lines = "\n".join(
                f"  {key} = {value:.3f}" for key, value in
                sorted(self.metrics.items()))
            table = f"{table}\n{metric_lines}"
        return table


def _headline(config: ExperimentConfig, core_name: str,
              experiment_id: str) -> ExperimentReport:
    """Shared implementation of the E1/E2 headline comparison.

    All three machine × suite sweeps form one engine batch, so the
    headline experiments parallelise across machines as well as
    benchmarks (see :mod:`repro.harness.parallel`).
    """
    base = config_for(core_name)
    suites = run_suites(("single", "corefusion", "fgstp"), base, config)
    single, fusion, fgstp = (suites["single"], suites["corefusion"],
                             suites["fgstp"])
    rows = []
    speedups_cf, speedups_fg, fg_over_cf = [], [], []
    for name in single:
        s_cf = single[name].cycles / fusion[name].cycles
        s_fg = single[name].cycles / fgstp[name].cycles
        ratio = fusion[name].cycles / fgstp[name].cycles
        speedups_cf.append(s_cf)
        speedups_fg.append(s_fg)
        fg_over_cf.append(ratio)
        rows.append([name, single[name].ipc, fusion[name].ipc,
                     fgstp[name].ipc, s_cf, s_fg, ratio])
    metrics = {
        "geomean_corefusion_speedup": geomean(speedups_cf),
        "geomean_fgstp_speedup": geomean(speedups_fg),
        "geomean_fgstp_over_corefusion": geomean(fg_over_cf),
    }
    return ExperimentReport(
        experiment_id=experiment_id,
        title=(f"Per-benchmark speedup on the {core_name} 2-core CMP "
               "(single core / Core Fusion / Fg-STP)"),
        headers=["benchmark", "ipc_single", "ipc_corefusion", "ipc_fgstp",
                 "speedup_cf", "speedup_fgstp", "fgstp_vs_cf"],
        rows=rows,
        metrics=metrics,
        notes=("Speedups are relative to one unmodified core of the same "
               "configuration; fgstp_vs_cf > 1 means Fg-STP is faster."),
    )


def e1_medium_headline(config: ExperimentConfig) -> ExperimentReport:
    """E1: headline comparison on the medium 2-core CMP."""
    return _headline(config, "medium", "E1")


def e2_small_headline(config: ExperimentConfig) -> ExperimentReport:
    """E2: headline comparison on the small 2-core CMP."""
    return _headline(config, "small", "E2")


def e3_partition_characterisation(config: ExperimentConfig
                                  ) -> ExperimentReport:
    """E3: where instructions go — balance, replication, communication."""
    base = config_for("medium")
    results = run_suites(("fgstp",), base, config)["fgstp"]
    rows = []
    for name, result in results.items():
        partition = result.extra["partition"]
        queues = result.extra["queues"]
        sends = (queues["q0to1"]["sends"] + queues["q1to0"]["sends"])
        total = max(partition["assigned"], 1)
        rows.append([
            name,
            partition["on_core1"] / total,
            partition["replication_rate"],
            100.0 * sends / max(result.instructions, 1),
            partition["cross_mem_deps"],
            result.extra["squashes"],
        ])
    return ExperimentReport(
        experiment_id="E3",
        title="Partition characterisation (medium config)",
        headers=["benchmark", "frac_core1", "replication_rate",
                 "queue_values_per_100", "cross_mem_deps", "squashes"],
        rows=rows,
    )


def _sensitivity(config: ExperimentConfig, experiment_id: str, title: str,
                 axis_name: str, points: List[Any],
                 job_args: Callable[[Any], Dict[str, Any]],
                 machine: str = "fgstp",
                 notes: str = ("Cells are Fg-STP speedup over one core at "
                               "each sweep point."),
                 extra_column: Optional[str] = None,
                 extra_of: Optional[Callable[[Any], float]] = None
                 ) -> ExperimentReport:
    """Shared sweep implementation for E4/E5/E8/E9/E14.

    The baseline runs and every (sweep point × benchmark) cell are
    submitted as one engine batch; all points of a sensitivity curve
    can simulate concurrently.

    Args:
        job_args: Maps a sweep point to the :func:`make_job` keyword
            arguments of *machine*'s runs at that point (Fg-STP
            parameters, or machine overrides such as a partition
            policy).
        extra_column / extra_of: Optional per-point diagnostic column:
            *extra_of* maps each swept :class:`SimResult` to a number
            and the row reports the sum over the point's benchmarks
            (E9 uses this to surface queue-mouth backpressure).
    """
    base = config_for("medium")
    names = config.benchmarks or REPRESENTATIVE
    sweep_config = config.with_(benchmarks=list(names))
    jobs = [make_job("single", name, base, sweep_config)
            for name in names]
    for point in points:
        jobs.extend(make_job(machine, name, base, sweep_config,
                             **job_args(point))
                    for name in names)
    results = run_jobs(jobs)
    singles = dict(zip(names, results[:len(names)]))
    rows = []
    for offset, point in enumerate(points):
        start = len(names) * (offset + 1)
        row: List[Any] = [point]
        speedups = []
        extra_total = 0.0
        for name, result in zip(names, results[start:start + len(names)]):
            speedup = singles[name].cycles / result.cycles
            speedups.append(speedup)
            row.append(speedup)
            if extra_of is not None:
                extra_total += extra_of(result)
        row.append(geomean(speedups))
        if extra_column is not None:
            row.append(extra_total)
        rows.append(row)
    headers = [axis_name] + list(names) + ["geomean"]
    if extra_column is not None:
        headers.append(extra_column)
    return ExperimentReport(
        experiment_id=experiment_id,
        title=title,
        headers=headers,
        rows=rows,
        notes=notes,
    )


def e4_comm_latency(config: ExperimentConfig) -> ExperimentReport:
    """E4: inter-core queue latency sensitivity."""
    return _sensitivity(
        config, "E4",
        "Fg-STP speedup vs. inter-core queue latency (medium config)",
        "queue_latency", [1, 2, 3, 5, 10, 20],
        lambda latency: {"fgstp": FgStpParams(queue_latency=latency)})


def e5_window_size(config: ExperimentConfig) -> ExperimentReport:
    """E5: partition lookahead window sensitivity."""
    return _sensitivity(
        config, "E5",
        "Fg-STP speedup vs. lookahead window size (medium config)",
        "window_size", [64, 128, 256, 512, 1024],
        lambda window: {"fgstp": FgStpParams(
            window_size=window, batch_size=min(64, window))})


def _mouth_blocked_cycles(result) -> float:
    """Total queue-mouth backpressure cycles of one Fg-STP run."""
    queues = result.extra.get("queues", {})
    return float(sum(queue.get("mouth_blocked_cycles", 0)
                     for queue in queues.values()))


def e9_comm_bandwidth(config: ExperimentConfig) -> ExperimentReport:
    """E9: inter-core queue bandwidth sensitivity."""
    return _sensitivity(
        config, "E9",
        "Fg-STP speedup vs. queue bandwidth (medium config)",
        "queue_bandwidth", [1, 2, 4],
        lambda bandwidth: {"fgstp": FgStpParams(
            queue_bandwidth=bandwidth)},
        extra_column="mouth_blocked",
        extra_of=_mouth_blocked_cycles)


def _ablation(config: ExperimentConfig, switch: str
              ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Fg-STP with the boolean parameter *switch* on and off.

    Both halves form one engine batch, so each trace is generated once.

    Returns:
        ``(on, off)``, each benchmark -> result in suite order.
    """
    base = config_for("medium")
    names = list(config.benchmarks) or suite_names("all")
    jobs = [make_job("fgstp", name, base, config,
                     fgstp=FgStpParams(**{switch: flag}))
            for flag in (True, False) for name in names]
    results = run_jobs(jobs)
    return (dict(zip(names, results[:len(names)])),
            dict(zip(names, results[len(names):])))


def e6_dependence_speculation(config: ExperimentConfig) -> ExperimentReport:
    """E6: dependence-speculation ablation with violation statistics."""
    with_spec, without = _ablation(config, "speculation")
    rows = []
    gains = []
    for name in with_spec:
        gain = without[name].cycles / with_spec[name].cycles
        gains.append(gain)
        predictor = with_spec[name].extra["dep_predictor"]
        rows.append([
            name, with_spec[name].ipc, without[name].ipc, gain,
            predictor["violations"], predictor["sync_predictions"],
            with_spec[name].extra["squashes"],
        ])
    return ExperimentReport(
        experiment_id="E6",
        title="Dependence-speculation ablation (medium config)",
        headers=["benchmark", "ipc_spec", "ipc_nospec", "spec_gain",
                 "violations", "sync_predictions", "squashes"],
        rows=rows,
        metrics={"geomean_speculation_gain": geomean(gains)},
        notes=("Without speculation every load synchronises behind the "
               "other core's most recent older store."),
    )


def e7_replication(config: ExperimentConfig) -> ExperimentReport:
    """E7: replication ablation with communication-traffic delta."""
    with_repl, without = _ablation(config, "replication")
    rows = []
    gains = []

    def sends(result):
        queues = result.extra["queues"]
        return queues["q0to1"]["sends"] + queues["q1to0"]["sends"]

    for name in with_repl:
        gain = without[name].cycles / with_repl[name].cycles
        gains.append(gain)
        rows.append([
            name, with_repl[name].ipc, without[name].ipc, gain,
            with_repl[name].extra["partition"]["replication_rate"],
            100.0 * sends(with_repl[name]) / with_repl[name].instructions,
            100.0 * sends(without[name]) / without[name].instructions,
        ])
    return ExperimentReport(
        experiment_id="E7",
        title="Replication ablation (medium config)",
        headers=["benchmark", "ipc_repl", "ipc_norepl", "repl_gain",
                 "replication_rate", "comm_per_100_repl",
                 "comm_per_100_norepl"],
        rows=rows,
        metrics={"geomean_replication_gain": geomean(gains)},
    )


def e8_fusion_overhead(config: ExperimentConfig) -> ExperimentReport:
    """E8: Core Fusion overhead sensitivity (baseline validation).

    The medium core's default overhead passes no override: that point
    is the plain Core Fusion job, which E1 runs too.
    """
    default = default_frontend_overhead(config_for("medium"))
    return _sensitivity(
        config, "E8",
        ("Core Fusion speedup vs. fusion front-end overhead "
         "(medium config)"),
        "frontend_overhead", [0, 2, 4, 6, 8],
        lambda overhead: ({} if overhead == default
                          else {"frontend_overhead": overhead}),
        machine="corefusion",
        notes=("Validates the baseline: fusion gains erode as the added "
               "front-end depth grows."))


def e10_int_fp_split(config: ExperimentConfig) -> ExperimentReport:
    """E10: INT vs FP breakdown of the headline result (both configs)."""
    rows = []
    for core_name in ("medium", "small"):
        base = config_for(core_name)
        for suite in ("int", "fp"):
            names = [n for n in suite_names(suite)
                     if not config.benchmarks or n in config.benchmarks]
            if not names:
                continue
            suite_cfg = config.with_(benchmarks=names)
            suites = run_suites(("single", "corefusion", "fgstp"),
                                base, suite_cfg)
            single, fusion, fgstp = (suites["single"],
                                     suites["corefusion"],
                                     suites["fgstp"])
            cf_speedup = geomean(
                [single[n].cycles / fusion[n].cycles for n in names])
            fg_speedup = geomean(
                [single[n].cycles / fgstp[n].cycles for n in names])
            rows.append([core_name, suite, len(names), cf_speedup,
                         fg_speedup, fg_speedup / cf_speedup])
    return ExperimentReport(
        experiment_id="E10",
        title="INT vs FP geomean speedups (both configs)",
        headers=["config", "suite", "benchmarks", "corefusion_speedup",
                 "fgstp_speedup", "fgstp_vs_cf"],
        rows=rows,
    )


def e11_adaptive_mode(config: ExperimentConfig) -> ExperimentReport:
    """E11 (extension): coarse-grain reconfiguration (adaptive Fg-STP)."""
    suites = run_suites(("fgstp", "single", "fgstp-adaptive"),
                        config_for("medium"), config)
    always, single, adaptive = (suites["fgstp"], suites["single"],
                                suites["fgstp-adaptive"])
    rows = []
    gains = []
    for name in always:
        gain = always[name].cycles / adaptive[name].cycles
        gains.append(gain)
        rows.append([
            name, single[name].ipc, always[name].ipc, adaptive[name].ipc,
            adaptive[name].extra["fgstp_regions"],
            adaptive[name].extra["single_regions"],
        ])
    return ExperimentReport(
        experiment_id="E11",
        title="Adaptive reconfiguration vs. always-on Fg-STP (medium)",
        headers=["benchmark", "ipc_single", "ipc_fgstp", "ipc_adaptive",
                 "fgstp_regions", "single_regions"],
        rows=rows,
        metrics={"geomean_adaptive_gain": geomean(gains)},
        notes=("Adaptive mode samples both configurations per region and "
               "keeps the second core only where partitioning pays."),
    )


def e12_energy(config: ExperimentConfig) -> ExperimentReport:
    """E12 (extension): energy and energy-delay of the three machines."""
    from ..stats.energy import energy_of

    suites = run_suites(("single", "corefusion", "fgstp"),
                        config_for("medium"), config)
    single, fusion, fgstp = (suites["single"], suites["corefusion"],
                             suites["fgstp"])
    rows = []
    edp_ratios_fg, edp_ratios_cf = [], []
    for name in single:
        reports = {label: energy_of(results[name])
                   for label, results in (("single", single),
                                          ("cf", fusion),
                                          ("fg", fgstp))}
        base_epi = reports["single"].energy_per_instruction
        base_edp = reports["single"].energy_delay_product
        edp_ratios_cf.append(reports["cf"].energy_delay_product / base_edp)
        edp_ratios_fg.append(reports["fg"].energy_delay_product / base_edp)
        rows.append([
            name,
            reports["single"].energy_per_instruction,
            reports["cf"].energy_per_instruction,
            reports["fg"].energy_per_instruction,
            reports["cf"].energy_delay_product / base_edp,
            reports["fg"].energy_delay_product / base_edp,
        ])
    return ExperimentReport(
        experiment_id="E12",
        title=("Energy per instruction and relative energy-delay "
               "product (medium config)"),
        headers=["benchmark", "epi_single", "epi_corefusion", "epi_fgstp",
                 "edp_cf_vs_single", "edp_fgstp_vs_single"],
        rows=rows,
        metrics={
            "geomean_edp_cf_vs_single": geomean(edp_ratios_cf),
            "geomean_edp_fgstp_vs_single": geomean(edp_ratios_fg),
        },
        notes=("Relative units; both 2-core schemes spend more energy "
               "per instruction, partially paid back by shorter "
               "execution in the EDP."),
    )


def e13_prefetching(config: ExperimentConfig) -> ExperimentReport:
    """E13 (extension): does a stream prefetcher change who wins?

    Re-runs the headline comparison on stream-heavy benchmarks with a
    per-PC stride prefetcher (degree 2) beside every core's L1D.  Both
    halves form one engine batch; the plain half is E1's jobs.
    """
    base = config_for("medium")
    names = config.benchmarks or ["libquantum", "lbm", "bwaves",
                                  "leslie3d", "gcc", "sjeng"]
    sweep_config = config.with_(benchmarks=list(names))
    machines = ("single", "corefusion", "fgstp")
    jobs = [make_job(machine, name, base.with_(prefetch_degree=degree),
                     sweep_config)
            for degree in (0, 2) for machine in machines for name in names]
    cycles = {(job.machine, job.base.prefetch_degree, job.benchmark):
              result.cycles for job, result in zip(jobs, run_jobs(jobs))}
    rows = [[name,
             *(cycles[machine, 0, name] / cycles[machine, 2, name]
               for machine in machines),
             cycles["corefusion", 2, name] / cycles["fgstp", 2, name]]
            for name in names]
    return ExperimentReport(
        experiment_id="E13",
        title="Stream-prefetching ablation (medium config)",
        headers=["benchmark", "pf_gain_single", "pf_gain_cf",
                 "pf_gain_fgstp", "fgstp_vs_cf_with_pf"],
        rows=rows,
        metrics={"geomean_fgstp_vs_cf_with_pf": geomean(
            [row[-1] for row in rows])},
        notes=("pf_gain_* columns: speedup each machine gets from the "
               "prefetcher; the last column re-checks the Fg-STP vs "
               "Core Fusion comparison with prefetching on."),
    )


def e14_partition_policies(config: ExperimentConfig) -> ExperimentReport:
    """E14 (extension): comparison of partition-assignment policies.

    The slice-growth policy (the paper's design) against round-robin,
    block-modulo and access/execute-decoupled assignments, with
    everything-on-one-core as the sanity bound.  The default policy
    passes no override: that point is the plain Fg-STP job, which E1
    runs too.
    """
    from ..fgstp.policies import POLICIES

    return _sensitivity(
        config, "E14",
        "Partition-policy comparison (Fg-STP speedup over 1 core)",
        "policy", list(POLICIES),
        lambda policy: {} if policy == "chain" else {"policy": policy},
        notes=("'single' routes everything to core 0 and must track the "
               "single-core baseline; 'chain' is the paper's design."))


def e15_branch_predictors(config: ExperimentConfig) -> ExperimentReport:
    """E15 (extension): branch-predictor study on the single core.

    Sweeps the predictor zoo (bimodal / gshare / tournament /
    perceptron / tage) on mispredict-sensitive benchmarks and reports
    misprediction rates and IPC — quantifying how much of the machines'
    behaviour rides on the front end.
    """
    base = config_for("medium")
    names = config.benchmarks or ["sjeng", "gobmk", "astar", "gcc"]
    sweep_config = config.with_(benchmarks=list(names))
    kinds = ("bimodal", "gshare", "tournament", "perceptron", "tage")
    jobs = []
    for kind in kinds:
        params = base.with_(branch=base.branch.__class__(
            kind=kind, table_entries=base.branch.table_entries,
            history_bits=base.branch.history_bits,
            btb_entries=base.branch.btb_entries,
            ras_entries=base.branch.ras_entries))
        jobs.extend(make_job("single", name, params, sweep_config)
                    for name in names)
    results = run_jobs(jobs)
    rows = []
    for offset, kind in enumerate(kinds):
        runs = results[offset * len(names):(offset + 1) * len(names)]
        rates = [result.extra["branch"]["misprediction_rate"]
                 for result in runs]
        rows.append([kind, sum(rates) / len(rates),
                     geomean([result.ipc for result in runs])])
    return ExperimentReport(
        experiment_id="E15",
        title="Branch-predictor study (single medium core)",
        headers=["predictor", "mean_mispredict_rate", "geomean_ipc"],
        rows=rows,
        notes=(f"benchmarks: {', '.join(names)}; lower misprediction "
               "rate must track higher IPC."),
    )


#: Experiment id -> function(config) -> ExperimentReport.
REGISTRY: Dict[str, Callable[[ExperimentConfig], ExperimentReport]] = {
    "E1": e1_medium_headline,
    "E2": e2_small_headline,
    "E3": e3_partition_characterisation,
    "E4": e4_comm_latency,
    "E5": e5_window_size,
    "E6": e6_dependence_speculation,
    "E7": e7_replication,
    "E8": e8_fusion_overhead,
    "E9": e9_comm_bandwidth,
    "E10": e10_int_fp_split,
    "E11": e11_adaptive_mode,
    "E12": e12_energy,
    "E13": e13_prefetching,
    "E14": e14_partition_policies,
    "E15": e15_branch_predictors,
}


def run_experiment(experiment_id: str,
                   config: Optional[ExperimentConfig] = None
                   ) -> ExperimentReport:
    """Run one registered experiment.

    Raises:
        KeyError: on an unknown experiment id.
    """
    try:
        function = REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(f"unknown experiment {experiment_id!r}; "
                       f"known: {sorted(REGISTRY)}") from None
    return function(config or ExperimentConfig())
