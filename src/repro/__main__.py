"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show the registered experiments and benchmark suite.
* ``run E1 [E4 ...]`` — run experiments and print their tables.
* ``simulate <benchmark>`` — run one benchmark on machines (default
  single, Core Fusion and Fg-STP) and render the runs as one
  ``--view``: ``speedup`` (the default: cycles, IPC and speedup over
  the first machine), ``cpi`` (CPI stacks, every ledger validated),
  ``metrics`` (each run's metrics registry, as tables or ``--json``)
  or ``timeline`` (per-uop pipeline events as Chrome trace-event JSON
  for Perfetto, Konata logs, JSONL or an ASCII timeline).
* ``sweep`` — fan a benchmark × seed × machine × config matrix across
  worker processes (disk-backed cache, retries, progress metrics).
  Cached sweeps are journaled *campaigns*: SIGINT/SIGTERM stop them
  cleanly with completed results persisted, ``--resume <id>`` finishes
  the remainder without redoing finished jobs, ``--stuck-after`` /
  ``--rss-limit-mb`` bound wedged and runaway jobs, and
  ``--checkpoint-interval`` turns on machine-level checkpointing.
* ``report`` — emit the full markdown experiment report (stdout).
* ``validate`` — run the cross-model relation battery.
* ``forensics`` — render a crash dump (latest by default).
* ``minimize`` — ddmin-shrink a crash dump's failing trace to a small
  regression fixture that still fails the same way.
* ``oracle`` — run machines with every retirement checked against the
  commit-stream oracle (``--selftest`` proves the oracle catches
  seeded dataflow/ordering mutations).
* ``fuzz`` — differential fuzzing: random well-formed programs through
  the functional interpreter and every machine under the oracle,
  shrinking any divergence to a regression fixture.
* ``bench`` — simulation-throughput benchmark: pinned workload matrix
  across the machines, instructions/s and kilo-cycles/s from multi-rep
  medians, ``BENCH_<date>.json`` snapshot, instructions/s regression
  check against the previous snapshot; a cell whose repetitions return
  different results fails.

Exit codes are uniform across commands: 0 = success, 1 = an experiment
or validation failed (including a simulation that hung or overflowed —
the failure leaves a crash dump and the exit line points at it), 2 =
usage error (unknown benchmark, experiment id, missing crash dump, a
malformed ``REPRO_CHAOS`` spec or malformed arguments, such as a flag
the command or view does not read — argparse errors also exit 2).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .harness.config import ExperimentConfig
from .harness.experiments import REGISTRY, run_experiment
from .harness.parallel import (ExperimentEngine, SweepError, SweepJob,
                               execute_job, make_job, matrix_jobs)
from .harness.report import (cpistack_comparison, cpistack_table,
                             run_and_render, sweep_to_text)
from .harness.runners import MACHINES
from .integrity.chaos import ENV_CHAOS, ChaosError, spec_from_env
from .integrity.errors import SimulationError
from .integrity.forensics import (DEFAULT_CRASH_DIR, CrashDumpError,
                                  latest_crash_dump, load_crash_dump,
                                  render_crash_dump, write_crash_dump)
from .stats.cpistack import AttributionError, cpistack_of
from .stats.store import ResultStore
from .stats.tables import render_table
from .uarch.params import core_config
from .workloads.generator import generate_trace
from .workloads.profiles import PROFILES
from .workloads.suite import suite_names


def _add_sizing(parser: argparse.ArgumentParser, warmup: bool = True,
                seed: bool = True, benchmarks: bool = True) -> None:
    """Register the trace-sizing flags; a command gets only those it
    reads, so passing any other one is a usage error, and so is a size
    that leaves nothing to measure (see :func:`_check_sizing`)."""
    parser.add_argument("--length", type=int, default=30000,
                        help="trace length incl. warm-up (default 30000)")
    if warmup:
        parser.add_argument("--warmup", type=int, default=10000,
                            help="functional warm-up instructions")
    if seed:
        parser.add_argument("--seed", type=int, default=1)
    if benchmarks:
        parser.add_argument("--benchmarks", nargs="*", default=[],
                            help="restrict to these benchmarks")
    parser.set_defaults(sizing_parser=parser)


def _check_sizing(parser: argparse.ArgumentParser, args) -> None:
    """Exit 2 through *parser* unless ``--length`` is positive and any
    ``--warmup`` lies in ``[0, length)``."""
    if args.length <= 0:
        parser.error(f"--length must be positive, got {args.length}")
    warmup = getattr(args, "warmup", 0)
    if warmup < 0:
        parser.error(f"--warmup must not be negative, got {warmup}")
    if warmup >= args.length:
        parser.error(f"--warmup {warmup} leaves nothing of --length "
                     f"{args.length} to measure")


def _unknown_benchmarks(args) -> list:
    """The benchmark names on the command line that are not in the
    suite: the positional of ``simulate``/``oracle`` and any
    ``--benchmarks``."""
    names = list(getattr(args, "benchmarks", None) or [])
    if hasattr(args, "benchmark"):
        names.append(args.benchmark)
    return [name for name in names if name not in PROFILES]


def _positive(kind, or_zero: bool = False):
    """An argparse type: *kind* of the text, rejected (exit 2) unless
    it is positive, or zero too with *or_zero*."""
    def parse(text):
        value = kind(text)
        if not (value >= 0 if or_zero else value > 0):
            raise argparse.ArgumentTypeError(
                f"must be {'non-negative' if or_zero else 'positive'}, "
                f"got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _config(args) -> ExperimentConfig:
    return ExperimentConfig(trace_length=args.length, warmup=args.warmup,
                            seed=args.seed,
                            benchmarks=list(getattr(args, "benchmarks", [])))


def cmd_list(_args) -> int:
    print("Experiments:")
    for experiment_id in sorted(REGISTRY, key=lambda e: int(e[1:])):
        doc = (REGISTRY[experiment_id].__doc__ or "").strip().splitlines()
        print(f"  {experiment_id:4s} {doc[0] if doc else ''}")
    print("\nBenchmarks:")
    for suite in ("int", "fp"):
        print(f"  {suite}: {', '.join(suite_names(suite))}")
    return 0


def cmd_run(args) -> int:
    config = _config(args)
    experiment_ids = [experiment_id.upper()
                      for experiment_id in args.experiments]
    unknown = [experiment_id for experiment_id in experiment_ids
               if experiment_id not in REGISTRY]
    if unknown:
        print(f"unknown experiment(s) {unknown}; see `list`",
              file=sys.stderr)
        return 2
    for experiment_id in experiment_ids:
        try:
            report = run_experiment(experiment_id, config)
        except SweepError as error:
            print(error, file=sys.stderr)
            return 1
        print(report.render())
        if report.notes:
            print(f"  note: {report.notes}")
        print()
    return 0


def _run_benchmark(args):
    """Run ``args.benchmark``'s trace on each of ``args.machines``.

    Only the timeline view attaches a tracer, a fresh one per machine.
    A run that fails with a structured error writes a crash dump and
    prints a one-line pointer to it.

    Returns:
        ``(exit_code, runs)`` with ``runs[machine] = (result, tracer)``.
        The exit code is 1 when a run failed, else 0.
    """
    from .obs.tracer import PipelineTracer

    base = core_config(args.config)
    trace = generate_trace(args.benchmark, args.length, args.seed)
    runs = {}
    for machine_name in dict.fromkeys(args.machines):  # each one once
        job = make_job(machine_name, args.benchmark, base, _config(args))
        tracer = (PipelineTracer(capacity=args.capacity,
                                 sample_window=args.sample_window,
                                 sample_period=args.sample_period)
                  if args.view == "timeline" else None)
        try:
            result = execute_job(job, trace, tracer=tracer)
        except SimulationError as error:
            dump = write_crash_dump(error, context=job.as_dict())
            print(f"{machine_name}: {error.failure_class}: {error} "
                  f"[crash dump: {dump}; inspect with "
                  f"`python -m repro forensics`]", file=sys.stderr)
            return 1, runs
        runs[machine_name] = (result, tracer)
    return 0, runs


#: The flags only one ``simulate`` view reads, with their defaults.
#: The parser gives them none, so a flag given to another view can be
#: told apart and rejected.
_VIEW_FLAGS = {
    "speedup": {},
    "cpi": {},
    "metrics": {"json": False},
    "timeline": {"format": "chrome", "out": None, "capacity": 65536,
                 "sample_window": 0, "sample_period": 1},
}


def _check_view(parser: argparse.ArgumentParser, args) -> None:
    """Exit 2 through *parser* on a flag only another view reads, then
    fill in the defaults of the flags *args*' view reads."""
    for view, defaults in _VIEW_FLAGS.items():
        for flag, default in defaults.items():
            if not hasattr(args, flag):
                setattr(args, flag, default)
            elif view != args.view:
                parser.error(f"--{flag.replace('_', '-')} is read only "
                             f"by --view {view}")


def cmd_simulate(args) -> int:
    code, runs = _run_benchmark(args)
    if code:
        return code
    views = {"speedup": _speedup_view, "cpi": _cpi_view,
             "metrics": _metrics_view, "timeline": _timeline_view}
    return views[args.view](args, runs)


def _speedup_view(args, runs) -> int:
    first = next(iter(runs.values()))[0]
    rows = [[machine, result.cycles, result.ipc,
             first.cycles / result.cycles]
            for machine, (result, _) in runs.items()]
    print(render_table(["machine", "cycles", "ipc", "speedup"], rows,
                       title=f"{args.benchmark} on {args.config}"))
    return 0


def _cpi_view(args, runs) -> int:
    stacks = {}
    failed = False
    for machine, (result, _) in runs.items():
        stack = cpistack_of(result)
        if stack is None:
            print(f"{machine}: no CPI stack in result", file=sys.stderr)
            failed = True
            continue
        try:
            stack.validate()
        except AttributionError as error:
            print(f"{machine}: {error}", file=sys.stderr)
            failed = True
            continue
        stacks[machine] = stack
        print(cpistack_table(
            stack, title=f"{args.benchmark} on {machine} "
                         f"({args.config}, width {stack.width})"))
        print()
    if len(stacks) > 1:
        print(cpistack_comparison(
            stacks, title=f"{args.benchmark}: CPI by cause"))
    return 1 if failed else 0


def _timeline_view(args, runs) -> int:
    import json

    from .harness.report import occupancy_text, timeline_text
    from .obs.export import chrome_trace, events_jsonl, konata_log

    machine_events = {name: tracer.events()
                      for name, (_, tracer) in runs.items()}

    out = Path(args.out) if args.out else None
    if args.format == "chrome":
        payload = chrome_trace(machine_events)
        if out is not None:
            with out.open("w") as stream:
                json.dump(payload, stream)
            print(f"wrote {out} "
                  f"({len(payload['traceEvents'])} trace events; "
                  f"load in Perfetto / chrome://tracing)")
        else:
            print(json.dumps(payload))
        return 0
    for machine_name, events in machine_events.items():
        if args.format == "ascii":
            print(timeline_text(
                events, title=f"{machine_name}: pipeline timeline "
                              f"({args.benchmark}, {args.config})"))
            print()
            print(occupancy_text(
                events, title=f"{machine_name}: commit occupancy"))
            print()
            continue
        if args.format == "konata":
            text = konata_log(events)
        else:  # jsonl
            text = "".join(line + "\n" for line in events_jsonl(events))
        if out is not None:
            path = (out if len(machine_events) == 1
                    else out.with_name(
                        f"{out.stem}.{machine_name}{out.suffix}"))
            path.write_text(text)
            print(f"wrote {path}")
        else:
            print(f"== {machine_name} ==")
            print(text, end="")
    return 0


def _metrics_view(args, runs) -> int:
    import json

    from .harness.report import metrics_table
    from .obs.metrics import metrics_of

    registries = {name: metrics_of(result)
                  for name, (result, _) in runs.items()}
    if args.json:
        print(json.dumps(
            {name: registry.as_dict()
             for name, registry in registries.items()},
            indent=1, sort_keys=True))
        return 0
    for machine_name, registry in registries.items():
        print(metrics_table(
            registry, title=f"{machine_name}: metrics "
                            f"({args.benchmark}, {args.config})"))
        print()
    return 0


def cmd_sweep(args) -> int:
    import signal
    import threading

    from .ckpt.manager import ENV_INTERVAL
    from .harness.campaign import (Campaign, CampaignError,
                                   auto_campaign_id)

    cache_root = None if args.no_cache else args.cache_dir

    campaign = None
    if args.resume:
        # Resuming: the manifest's recipe, not the command line, is
        # the source of truth for everything that determines results.
        if args.campaign:
            print("--resume and --campaign are mutually exclusive",
                  file=sys.stderr)
            return 2
        if cache_root is None:
            print("--resume needs the disk cache (drop --no-cache)",
                  file=sys.stderr)
            return 2
        try:
            campaign = Campaign.load(args.resume, cache_root)
            recipe = campaign.recipe
        except CampaignError as error:
            print(str(error), file=sys.stderr)
            return 2
        args.benchmarks = recipe.get("benchmarks") or None
        args.seeds = recipe.get("seeds", args.seeds)
        args.machines = recipe.get("machines", args.machines)
        args.configs = recipe.get("configs", args.configs)
        args.length = recipe.get("length", args.length)
        args.warmup = recipe.get("warmup", args.warmup)
        args.store = recipe.get("store", args.store)
        args.oracle_sample = recipe.get("oracle_sample",
                                        args.oracle_sample)
        args.trace_sample = recipe.get("trace_sample", args.trace_sample)
        if args.checkpoint_interval is None:
            args.checkpoint_interval = recipe.get("checkpoint_interval")

    benchmarks = args.benchmarks or suite_names("all")

    if args.checkpoint_interval is not None:
        # Through the environment so pool workers inherit it and every
        # machine they build checkpoints at this cadence.
        os.environ[ENV_INTERVAL] = str(args.checkpoint_interval)

    if campaign is None and cache_root is not None:
        campaign_id = args.campaign or auto_campaign_id()
        recipe = {
            "benchmarks": list(benchmarks),
            "seeds": list(args.seeds),
            "machines": list(args.machines),
            "configs": list(args.configs),
            "length": args.length,
            "warmup": args.warmup,
            "store": args.store,
            "oracle_sample": args.oracle_sample,
            "trace_sample": args.trace_sample,
            "checkpoint_interval": args.checkpoint_interval,
        }
        try:
            campaign = Campaign.create(campaign_id, recipe, cache_root)
        except CampaignError as error:
            print(str(error), file=sys.stderr)
            return 2
    elif campaign is None and args.campaign:
        print("--campaign needs the disk cache (drop --no-cache)",
              file=sys.stderr)
        return 2

    stop_event = threading.Event()

    def progress(event, message):
        if campaign is not None and event in (
                "job-done", "job-failed", "job-retry", "job-preempted",
                "job-timeout-unenforced"):
            campaign.log(event, message=message)
        if not args.quiet:
            print(f"[{event}] {message}", file=sys.stderr)

    engine = ExperimentEngine(
        max_workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        cache_dir=cache_root,
        result_cache=not args.no_cache,
        progress=progress,
        oracle_sample=args.oracle_sample,
        trace_sample=args.trace_sample,
        stop_event=stop_event,
        stuck_after=args.stuck_after,
        rss_limit_mb=args.rss_limit_mb)
    jobs = matrix_jobs(benchmarks=benchmarks, seeds=args.seeds,
                       machines=args.machines, configs=args.configs,
                       trace_length=args.length, warmup=args.warmup)

    if campaign is not None:
        campaign.log("campaign-start", attempt=campaign.attempts() + 1,
                     jobs=len(jobs))
        if not args.quiet:
            print(f"[campaign] {campaign.id} "
                  f"({len(jobs)} job(s); journal: "
                  f"{campaign.journal_path})", file=sys.stderr)

    def on_signal(signum, _frame):
        # First signal: cooperative stop — the engine flushes every
        # completed result to the cache and returns, so a later
        # --resume never redoes finished work.
        stop_event.set()
        print(f"[campaign] caught signal {signum}; stopping after "
              f"in-flight work, completed results are kept",
              file=sys.stderr)

    previous_handlers = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[signum] = signal.signal(signum, on_signal)
        except (ValueError, OSError, AttributeError):
            pass
    try:
        outcome = engine.run(jobs)
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass

    metrics = outcome.metrics
    if metrics.interrupted:
        if campaign is not None:
            campaign.log("campaign-interrupted",
                         jobs_done=metrics.jobs_done,
                         jobs_failed=metrics.jobs_failed,
                         result_cache_hits=metrics.result_cache_hits,
                         jobs_total=metrics.jobs_total)
            print(f"sweep interrupted; completed results are cached.\n"
                  f"resume with: python -m repro sweep "
                  f"--resume {campaign.id} --cache-dir {cache_root}",
                  file=sys.stderr)
        else:
            print("sweep interrupted (no campaign journal: disk cache "
                  "disabled); completed work was not persisted",
                  file=sys.stderr)
        return 1

    print(sweep_to_text(outcome))
    if campaign is not None:
        campaign.log("campaign-complete",
                     jobs_done=metrics.jobs_done,
                     jobs_failed=metrics.jobs_failed,
                     result_cache_hits=metrics.result_cache_hits,
                     preempted=metrics.preempted)
        campaign.write_results(outcome.results, outcome.jobs)
    if args.store:
        store = ResultStore(args.store)
        store.append_many(
            (result for result in outcome.results if result is not None),
            tags={"source": "sweep"})
    return 1 if outcome.failures else 0


def cmd_report(args) -> int:
    try:
        print(run_and_render(config=_config(args)))
    except SweepError as error:
        print(error, file=sys.stderr)
        return 1
    return 0


def cmd_oracle(args) -> int:
    from .oracle.golden import GoldenStream
    from .oracle.selftest import format_outcomes, run_selftest

    base = core_config(args.config)
    machines = args.machines or list(MACHINES)

    if args.selftest:
        print("oracle self-test: seeded commit-stream mutations...")
        outcomes = run_selftest(base=base, machine=machines[0],
                                benchmark=args.benchmark,
                                length=args.length, seed=args.seed)
        print(format_outcomes(outcomes))
        return 0 if all(outcome.passed for outcome in outcomes) else 1

    if args.kernel:
        from .workloads.kernels import KERNELS
        if args.kernel not in KERNELS:
            print(f"unknown kernel {args.kernel!r}; known: "
                  f"{sorted(KERNELS)}", file=sys.stderr)
            return 2
        golden = GoldenStream.from_program(KERNELS[args.kernel]())
        trace = golden.records
        jobs = [SweepJob(machine, "", base, ExperimentConfig(warmup=0),
                         oracle=True, kernel=args.kernel)
                for machine in machines]
        print(f"golden stream: {len(golden)} instructions from "
              f"functional execution of kernel {args.kernel!r} "
              "(dataflow-checked)")
    else:
        golden = None
        trace = generate_trace(args.benchmark, args.length, args.seed)
        jobs = [make_job(machine, args.benchmark, base, _config(args),
                         oracle=True) for machine in machines]
        print(f"golden stream: trace fidelity over "
              f"{len(trace) - args.warmup} measured instructions of "
              f"{args.benchmark}")

    failed = False
    for job in jobs:
        try:
            result = execute_job(job, trace, golden=golden)
        except SimulationError as error:
            dump = write_crash_dump(error, context=job.as_dict())
            print(f"  {job.machine}: {error.failure_class}: {error} "
                  f"[crash dump: {dump}; shrink with "
                  f"`python -m repro minimize`]", file=sys.stderr)
            failed = True
            continue
        print(f"  {job.machine}: OK — "
              f"{result.extra['oracle']['checked']} retirements checked "
              f"in {result.cycles} cycles")
    return 1 if failed else 0


def cmd_fuzz(args) -> int:
    from .oracle import fuzz_campaign
    from .oracle.fuzz import describe_report
    from .validation import run_battery

    base = core_config(args.config)
    machines = args.machines or list(MACHINES)
    fixture_dir = Path(args.fixture_dir) if args.fixture_dir else None
    log = None if args.quiet else (lambda line: print(line,
                                                      file=sys.stderr))
    report = fuzz_campaign(runs=args.runs, seed=args.seed,
                           machines=machines, base=base,
                           fixture_dir=fixture_dir,
                           shrink=not args.no_shrink,
                           blocks=args.blocks, log=log)
    print(describe_report(report))
    failed = not report.clean
    if args.metamorphic:
        print("relation battery (gcc trace):")
        for result in run_battery("gcc", args.length, args.seed, base,
                                  crash_dir=DEFAULT_CRASH_DIR).values():
            print(f"  {result}")
            failed = failed or not result.passed
    return 1 if failed else 0


def cmd_bench(args) -> int:
    from .harness import bench

    machines = args.machines or list(bench.PINNED_MACHINES)
    benchmarks = args.benchmarks or list(bench.PINNED_BENCHMARKS)
    if args.reps < 1:
        print(f"--reps must be >= 1: {args.reps}", file=sys.stderr)
        return 2
    if not 0 <= args.threshold < 1:
        print(f"--threshold must be in [0, 1): {args.threshold}",
              file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        snapshot = bench.run_matrix(
            machines=machines, benchmarks=benchmarks, config=args.config,
            length=args.length, warmup=args.warmup, seed=args.seed,
            reps=args.reps, log=print)
    except bench.NondeterministicCell as error:
        print(f"nondeterministic cell {error}", file=sys.stderr)
        return 1
    if args.no_write:
        path = None
    else:
        path = bench.write_snapshot(snapshot, out_dir)
        print(f"snapshot written to {path}")
    if args.baseline:
        before_path = Path(args.baseline)
        if not before_path.is_file():
            print(f"baseline snapshot not found: {before_path}",
                  file=sys.stderr)
            return 2
    else:
        before_path = bench.previous_snapshot(out_dir, exclude=path)
    if before_path is None:
        print("no previous snapshot to compare against")
        return 0
    before = bench.load_snapshot(before_path)
    if bench.comparable_cells(snapshot, before) == 0:
        print(f"warning: {before_path} is not comparable to this run "
              f"(different schema or sizing, or no overlapping cells) — "
              f"no regression check performed", file=sys.stderr)
        return 0
    regressions = bench.compare_snapshots(snapshot, before,
                                          threshold=args.threshold)
    if not regressions:
        print(f"no regressions beyond {args.threshold:.0%} "
              f"vs {before_path}")
        return 0
    print(f"throughput regressions vs {before_path}:", file=sys.stderr)
    for reg in regressions:
        print(f"  {reg['machine']}/{reg['benchmark']}: "
              f"{reg['ips']:.0f} instr/s vs {reg['previous_ips']:.0f} "
              f"({reg['ratio']:.0%} of previous, "
              f"floor {1 - args.threshold:.0%})", file=sys.stderr)
    return 1


def cmd_validate(args) -> int:
    from .validation import validate_all

    benchmarks = args.benchmarks or ["gcc", "milc", "mcf"]
    any_failed = False
    for benchmark in benchmarks:
        print(f"validating on {benchmark} "
              f"({args.length} instructions)...")
        results = validate_all(benchmark, length=args.length,
                               seed=args.seed,
                               crash_dir=DEFAULT_CRASH_DIR)
        for result in results.values():
            print(f"  {result}")
            any_failed = any_failed or not result.passed
    return 1 if any_failed else 0


def _resolve_dump(args):
    """The dump path named by the CLI (or the latest), or ``None``."""
    if args.dump:
        return Path(args.dump)
    latest = latest_crash_dump(args.crash_dir)
    if latest is None:
        print(f"no crash dumps under {args.crash_dir}", file=sys.stderr)
    return latest


def cmd_forensics(args) -> int:
    path = _resolve_dump(args)
    if path is None:
        return 2
    try:
        dump = load_crash_dump(path)
    except CrashDumpError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"dump: {path}")
    print(render_crash_dump(dump))
    return 0


def cmd_minimize(args) -> int:
    from .integrity.minimize import (checkpoint_suffix, failure_class_of,
                                     minimize_failure, replay_run_fn,
                                     trace_from_context)
    from .trace.io import write_trace

    path = _resolve_dump(args)
    if path is None:
        return 2
    try:
        dump = load_crash_dump(path)
    except CrashDumpError as error:
        print(str(error), file=sys.stderr)
        return 2
    context = dump.get("context") or {}
    try:
        trace = trace_from_context(context)
        run_fn = replay_run_fn(context)
    except (KeyError, TypeError, ValueError) as error:
        print(f"{path}: replay recipe is incomplete ({error})",
              file=sys.stderr)
        return 2
    failure_class = dump.get("failure_class") or None
    suffix = checkpoint_suffix(trace, context)
    if suffix is not None:
        # The dump is anchored to a checkpoint: everything before the
        # snapshot provably ran clean, so probe the suffix first and
        # only fall back to the full trace when the failure does not
        # reproduce from it (e.g. the trigger straddles the cut).
        error = failure_class_of(run_fn, suffix)
        if error is not None and (failure_class is None
                                  or error.failure_class == failure_class):
            print(f"checkpoint anchor at committed="
                  f"{context.get('checkpoint_committed')}: starting from "
                  f"the {len(suffix)}-record post-checkpoint suffix")
            trace = suffix
        else:
            print("checkpoint anchor did not reproduce the failure; "
                  "falling back to the full trace")
    print(f"minimizing {len(trace)}-record trace preserving "
          f"{failure_class or 'any failure class'}...")
    result = minimize_failure(trace, run_fn,
                              failure_class=failure_class,
                              max_tests=args.max_tests)
    if not result.reproduced:
        print("the failure did not reproduce from the dump's recipe",
              file=sys.stderr)
        return 1
    output = (Path(args.output) if args.output
              else path.with_suffix("").with_suffix(".min.trace"))
    output.parent.mkdir(parents=True, exist_ok=True)
    with output.open("wb") as stream:
        write_trace(result.records, stream)
    sidecar = output.with_suffix(".json")
    import json
    with sidecar.open("w") as stream:
        json.dump({"failure_class": result.failure_class,
                   "original_length": result.original_length,
                   "minimized_length": result.minimized_length,
                   "tests_run": result.tests_run,
                   "context": context,
                   "source_dump": str(path)}, stream, indent=1,
                  sort_keys=True)
    print(f"minimized {result.original_length} -> "
          f"{result.minimized_length} records in {result.tests_run} "
          f"probe run(s); fixture: {output}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Fg-STP reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show experiments and benchmarks")

    run_parser = sub.add_parser("run", help="run experiments")
    run_parser.add_argument("experiments", nargs="+",
                            help="experiment ids, e.g. E1 E4")
    _add_sizing(run_parser)

    sim_parser = sub.add_parser(
        "simulate", help="run one benchmark on machines and show it as "
                         "a speedup table, CPI stacks, metrics or a "
                         "pipeline timeline")
    sim_parser.add_argument("benchmark")
    sim_parser.add_argument("--view", default="speedup",
                            choices=tuple(_VIEW_FLAGS),
                            help="how to show the runs (default speedup)")
    sim_parser.add_argument("--config", default="medium",
                            choices=("small", "medium"))
    sim_parser.add_argument("--machines", nargs="+",
                            default=["single", "corefusion", "fgstp"],
                            choices=MACHINES,
                            help="machines to run; speedups are over the "
                                 "first (default single corefusion "
                                 "fgstp)")
    # Flags of one view (see _VIEW_FLAGS) have no parser default.
    metrics_flags = sim_parser.add_argument_group("--view metrics")
    metrics_flags.add_argument("--json", action="store_true",
                               default=argparse.SUPPRESS,
                               help="one JSON document instead of tables")
    timeline_flags = sim_parser.add_argument_group("--view timeline")
    timeline_flags.add_argument("--format", default=argparse.SUPPRESS,
                                choices=("chrome", "konata", "jsonl",
                                         "ascii"),
                                help="output format (default chrome; "
                                     "load in Perfetto)")
    timeline_flags.add_argument("--out", default=argparse.SUPPRESS,
                                help="output file (default stdout; "
                                     "multi-machine konata/jsonl files "
                                     "get a machine suffix)")
    timeline_flags.add_argument("--capacity", type=_positive(int),
                                default=argparse.SUPPRESS,
                                help="event ring capacity (default 65536)")
    timeline_flags.add_argument("--sample-window",
                                type=_positive(int, or_zero=True),
                                default=argparse.SUPPRESS,
                                help="cycles per sampling window "
                                     "(default 0 = record everything)")
    timeline_flags.add_argument("--sample-period", type=_positive(int),
                                default=argparse.SUPPRESS,
                                help="record one window in every N "
                                     "(default 1)")
    _add_sizing(sim_parser, benchmarks=False)

    # No abbreviations: `--seed` would otherwise mean `--seeds` here.
    sweep_parser = sub.add_parser(
        "sweep", help="parallel benchmark × seed × machine sweep",
        allow_abbrev=False)
    sweep_parser.add_argument("--seeds", nargs="*", type=int,
                              default=[1, 2, 3],
                              help="workload seeds (default 1 2 3)")
    sweep_parser.add_argument("--machines", nargs="*", default=["single",
                                                                "fgstp"],
                              choices=MACHINES,
                              help="machines to run (default single fgstp)")
    sweep_parser.add_argument("--configs", nargs="*", default=["medium"],
                              choices=("small", "medium"),
                              help="core configurations (default medium)")
    sweep_parser.add_argument("--workers", type=int,
                              default=os.cpu_count() or 1,
                              help="worker processes (default: all cores; "
                                   "1 = serial)")
    sweep_parser.add_argument("--timeout", type=_positive(float),
                              default=None,
                              help="per-job timeout in seconds")
    sweep_parser.add_argument("--retries", type=int, default=1,
                              help="retries per failed job (default 1)")
    sweep_parser.add_argument("--cache-dir", default=".repro_cache",
                              help="disk cache root (default .repro_cache)")
    sweep_parser.add_argument("--no-cache", action="store_true",
                              help="disable the disk cache and the "
                                   "in-memory result tier")
    sweep_parser.add_argument("--store", default=None,
                              help="append results to this JSON-lines "
                                   "result store")
    sweep_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-job progress lines")
    sweep_parser.add_argument("--oracle-sample", type=float, default=0.0,
                              metavar="FRACTION",
                              help="run this fraction of jobs under the "
                                   "commit-stream oracle (deterministic "
                                   "per-job selection; default 0)")
    sweep_parser.add_argument("--trace-sample", type=float, default=0.0,
                              metavar="FRACTION",
                              help="attach a sampled pipeline tracer to "
                                   "this fraction of jobs (event dumps "
                                   "under <cache-dir>/traces/; "
                                   "deterministic per-job selection; "
                                   "default 0)")
    sweep_parser.add_argument("--campaign", default=None, metavar="ID",
                              help="campaign id for the write-ahead "
                                   "journal under <cache-dir>/campaigns/ "
                                   "(default: auto-generated)")
    sweep_parser.add_argument("--resume", default=None, metavar="ID",
                              help="resume an interrupted campaign: "
                                   "rebuild its recipe, skip every "
                                   "already-cached job, finish the rest")
    sweep_parser.add_argument("--stuck-after", type=_positive(float),
                              default=None,
                              metavar="SECONDS",
                              help="kill and requeue a pool worker whose "
                                   "heartbeat goes silent this long "
                                   "(default: no preemption)")
    sweep_parser.add_argument("--rss-limit-mb", type=_positive(int),
                              default=None,
                              metavar="MIB",
                              help="per-job address-space budget; "
                                   "overruns fail structurally instead "
                                   "of OOM-killing the host")
    sweep_parser.add_argument("--checkpoint-interval", type=int,
                              default=None, metavar="COMMITS",
                              help="checkpoint machines every N committed "
                                   "instructions (sets "
                                   "REPRO_CHECKPOINT_INTERVAL for "
                                   "workers; 0 = off)")
    _add_sizing(sweep_parser, seed=False)

    report_parser = sub.add_parser("report",
                                   help="emit markdown for all experiments")
    _add_sizing(report_parser)

    validate_parser = sub.add_parser(
        "validate", help="run the 9-relation cross-model battery "
                         "(default benchmarks gcc milc mcf)")
    _add_sizing(validate_parser, warmup=False)

    forensics_parser = sub.add_parser(
        "forensics", help="render a crash dump (latest by default)")
    forensics_parser.add_argument("dump", nargs="?", default=None,
                                  help="dump file (default: most recent)")
    forensics_parser.add_argument("--crash-dir",
                                  default=str(DEFAULT_CRASH_DIR),
                                  help="where dumps live (default "
                                       ".repro_cache/crashes)")

    minimize_parser = sub.add_parser(
        "minimize", help="shrink a crash dump's failing trace (ddmin)")
    minimize_parser.add_argument("dump", nargs="?", default=None,
                                 help="dump file (default: most recent)")
    minimize_parser.add_argument("--crash-dir",
                                 default=str(DEFAULT_CRASH_DIR),
                                 help="where dumps live (default "
                                      ".repro_cache/crashes)")
    minimize_parser.add_argument("--output", default=None,
                                 help="minimized trace path (default: "
                                      "next to the dump, .min.trace)")
    minimize_parser.add_argument("--max-tests", type=int, default=512,
                                 help="probe-run budget (default 512)")

    oracle_parser = sub.add_parser(
        "oracle", help="run machines under the commit-stream oracle")
    oracle_parser.add_argument("benchmark", nargs="?", default="gcc",
                               help="benchmark trace to check "
                                    "(default gcc)")
    oracle_parser.add_argument("--config", default="small",
                               choices=("small", "medium"))
    oracle_parser.add_argument("--machines", nargs="*", default=[],
                               choices=MACHINES,
                               help="machines to check (default: all)")
    oracle_parser.add_argument("--kernel", default=None,
                               help="check a real assembly kernel instead "
                                    "(architectural golden stream)")
    oracle_parser.add_argument("--selftest", action="store_true",
                               help="prove the oracle detects seeded "
                                    "commit-stream mutations")
    _add_sizing(oracle_parser, benchmarks=False)

    fuzz_parser = sub.add_parser(
        "fuzz", help="differential random-program fuzzing")
    fuzz_parser.add_argument("--runs", type=int, default=20,
                             help="programs to generate (default 20)")
    fuzz_parser.add_argument("--config", default="small",
                             choices=("small", "medium"))
    fuzz_parser.add_argument("--machines", nargs="*", default=[],
                             choices=MACHINES,
                             help="machines to check (default: all)")
    fuzz_parser.add_argument("--blocks", type=int, default=8,
                             help="code blocks per program (size knob; "
                                  "default 8)")
    fuzz_parser.add_argument("--fixture-dir", default=None,
                             help="write shrunk failures here as "
                                  "regression fixtures")
    fuzz_parser.add_argument("--no-shrink", action="store_true",
                             help="skip ddmin shrinking of failures")
    fuzz_parser.add_argument("--metamorphic", action="store_true",
                             help="also run the 9-relation battery of "
                                  "`validate` on a gcc trace of --length "
                                  "records")
    fuzz_parser.add_argument("--quiet", action="store_true",
                             help="suppress per-program progress lines")
    _add_sizing(fuzz_parser, warmup=False, benchmarks=False)

    bench_parser = sub.add_parser(
        "bench", help="simulation-throughput benchmark (pinned matrix: "
                      "gcc mcf milc, 30000/10000, seed 42; snapshot + "
                      "regression check)")
    bench_parser.add_argument("--machines", nargs="*", default=[],
                              choices=MACHINES,
                              help="machines to run (default: all)")
    bench_parser.add_argument("--config", default="medium",
                              choices=("small", "medium"))
    _add_sizing(bench_parser)
    bench_parser.set_defaults(seed=42)
    bench_parser.add_argument("--reps", type=int, default=3,
                              help="measured repetitions per cell; one "
                                   "extra warm-up rep is discarded "
                                   "(default 3)")
    bench_parser.add_argument("--threshold", type=float, default=0.25,
                              help="allowed fractional throughput drop "
                                   "vs the previous snapshot "
                                   "(default 0.25)")
    bench_parser.add_argument("--out", default=".",
                              help="directory for BENCH_<date>.json "
                                   "(default: current directory)")
    bench_parser.add_argument("--baseline", default="",
                              help="explicit snapshot to compare against "
                                   "(default: latest BENCH_*.json in "
                                   "--out)")
    bench_parser.add_argument("--no-write", action="store_true",
                              help="measure and compare without writing "
                                   "a snapshot")

    args = parser.parse_args(argv)
    if hasattr(args, "sizing_parser"):
        _check_sizing(args.sizing_parser, args)
    if args.command == "simulate":
        _check_view(sim_parser, args)
    unknown = _unknown_benchmarks(args)
    if unknown:
        print(f"unknown benchmark(s) {unknown}; see `list`",
              file=sys.stderr)
        return 2
    try:
        spec_from_env()
    except ChaosError as error:
        print(f"{ENV_CHAOS}: {error}", file=sys.stderr)
        return 2
    handlers = {"list": cmd_list, "run": cmd_run,
                "simulate": cmd_simulate, "sweep": cmd_sweep,
                "report": cmd_report, "validate": cmd_validate,
                "forensics": cmd_forensics, "minimize": cmd_minimize,
                "oracle": cmd_oracle, "fuzz": cmd_fuzz,
                "bench": cmd_bench}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
