#!/usr/bin/env python3
"""Simulator benchmark: host throughput of the Fg-STP reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fgstp_medium --seed 42 \\
        --seconds 20 --trace 0

Workloads are ``fgstp_medium``, ``baseline_medium`` (see ``cells.py``)
and ``sweep_suite`` (see ``sweep.py``).  The seed drives every generated
trace.  With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics instead, and a per-layer self-time table is printed before it.
Metric names, units and directions are those of ``BENCHMARK.json``;
``perfbench/README.md`` explains how to read them.

The program under test is ``src/repro`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: Scratch space for trace files and sweep caches, removed after a run.
WORKDIR = ROOT / ".perfbench_work"

WORKLOADS = ("fgstp_medium", "baseline_medium", "sweep_suite")
#: The seed the ``repro bench`` snapshots use, and one never tuned on:
#: a performance claim must hold on both.
DEFAULT_SEED = 42
HELD_OUT_SEED = 1009
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPS = 5

#: Simulator knobs read from the environment: pinned to the defaults so
#: a stray setting can neither slow nor alter the measured runs.
PINNED_ENV = {"REPRO_SKIP_AHEAD": "1"}
CLEARED_ENV = ("REPRO_CHECKPOINT_INTERVAL", "REPRO_CHAOS",
               "REPRO_CPISTACK_CHECK", "REPRO_WORKERS")

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "started = time.perf_counter()\n"
    "import repro.harness.parallel\n"
    "print(time.perf_counter() - started)\n")


def time_import() -> float:
    """Seconds to import the simulator in a fresh interpreter (the
    interpreter's own start-up excluded)."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           cwd=ROOT, capture_output=True, text=True,
                           check=True, timeout=120)
    return float(probe.stdout.strip().splitlines()[-1])


def time_setup(generate, seed: int, host):
    """Median import time plus median trace-generation time, both in
    reference seconds.  Returns ``(setup_s, traces, generation_s)``."""
    imports = []
    for _ in range(SETUP_REPS):
        seconds, factor = host.timed(time_import)
        imports.append(seconds * factor)
    generation = []
    for _ in range(SETUP_REPS):
        traces, seconds = host.seconds(generate, seed)
        generation.append(seconds)
    median = statistics.median(generation)
    return statistics.median(imports) + median, traces, median


def trace_io_rps(traces, workdir: Path, tally, host):
    """Records per reference second through ``write_trace`` and
    ``read_trace``; a trace that does not read back equal counts as a
    failure."""
    from repro.trace.io import read_trace, write_trace

    records = sum(len(trace) for trace in traces.values())
    write_s = read_s = 0.0
    for index, (name, trace) in enumerate(traces.items()):
        path = workdir / f"{index}.trace"
        write_s += host.seconds(write_trace, trace, path)[1]
        back, seconds = host.seconds(read_trace, path)
        read_s += seconds
        tally.check(f"trace io {name}",
                    [] if back == trace else ["trace read back differs"])
    return records / write_s, records / read_s


def run(workload: str, seed: int, seconds: float, traced: bool,
        workdir: Path):
    """Measure *workload*; returns ``(metrics, tally, table)``."""
    import cells
    import sweep
    from hostspeed import HostSpeed

    host = HostSpeed()
    module = sweep if workload == "sweep_suite" else cells
    setup_s, traces, generation_s = time_setup(module.generate, seed, host)
    table = ""
    if workload == "sweep_suite":
        metrics, tally = sweep.measure(seed, seconds, workdir, traced, host)
    else:
        metrics, tally, table = cells.measure(workload, traces, seconds,
                                              traced, host)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if traced:
        records = sum(len(trace) for trace in traces.values())
        metrics["workloads.gen_rps"] = records / generation_s
        metrics["trace.write_rps"], metrics["trace.read_rps"] = \
            trace_io_rps(traces, workdir, tally, host)
        if module is cells:
            metrics["warmup.rps"] = cells.timed_warmup_rps(traces, host)
        metrics["host.kernel_ms"] = 1000.0 * statistics.median(host.kernel_s)
        metrics["error_rate"] = tally.failed / tally.attempted
    return metrics, tally, table


def report(metrics, tally, spec, traced: bool) -> dict:
    """The result object: every metric of the selected kind, by name.

    Per-layer metrics a workload does not exercise read 0.
    """
    wanted = spec["per_layer" if traced else "end_to_end"]
    known = {entry["name"] for entry in spec["per_layer"] + spec["end_to_end"]}
    unknown = sorted(set(metrics) - known)
    if unknown:
        raise ValueError(f"metrics missing from {SPEC.name}: {unknown}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            entry["name"]: {"value": metrics.get(entry["name"], 0.0)
                            if traced else metrics[entry["name"]],
                            "unit": entry["unit"]}
            for entry in wanted
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no simulator sources under {SRC} or no "
              f"{SPEC.name}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))
    try:
        metrics, tally, table = run(args.workload, args.seed, args.seconds,
                                    bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it
    if table:
        print(f"per-layer self time, {args.workload}, seed {args.seed} "
              f"(shares are wrapper-inflated; trace_overhead = "
              f"{metrics['trace_overhead']:.2f}):")
        print(table)
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(report(metrics, tally, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
