"""Shared configuration for the benchmark harness.

Every module regenerates one of the paper's tables/figures (see
DESIGN.md's experiment index) and prints the same rows the paper
reports.  Absolute numbers come from our simulator, not the authors'
testbed; the assertions encode the *shapes* that must hold.

Sizing: benchmarks default to 12k-instruction traces with a 4k warm-up —
large enough for stable rankings, small enough for a full run in
minutes.  Set ``REPRO_BENCH_LENGTH`` / ``REPRO_BENCH_WARMUP`` to scale
up (e.g. 30000/10000 for paper-size tables).

Parallelism: every experiment but E13 (which attaches prefetchers to
machines after building them) routes its machine runs through the
experiment engine (:mod:`repro.harness.parallel`), so the suite fans
out across ``REPRO_BENCH_WORKERS`` processes (default: all cores)
sharing generated traces via a disk cache under
``REPRO_BENCH_CACHE`` (default ``.repro_cache``).  The *result* cache
is disabled here on purpose: these are timing benchmarks, and serving
yesterday's numbers would defeat them.  Set ``REPRO_BENCH_WORKERS=1``
for the fully serial (bit-identical) path.
"""

import os

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.parallel import ExperimentEngine, set_default_engine

BENCH_LENGTH = int(os.environ.get("REPRO_BENCH_LENGTH", "12000"))
BENCH_WARMUP = int(os.environ.get("REPRO_BENCH_WARMUP", "4000"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS",
                                   str(os.cpu_count() or 1)))
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE", ".repro_cache")

set_default_engine(ExperimentEngine(
    max_workers=BENCH_WORKERS,
    cache_dir=BENCH_CACHE or None,
    result_cache=False,
    retries=1,
))

#: Full-suite experiments (E1/E2/E3/E6/E7/E10).
SUITE_CONFIG = ExperimentConfig(trace_length=BENCH_LENGTH,
                                warmup=BENCH_WARMUP)

#: Sweep experiments run on the representative subset (E4/E5/E8/E9).
SWEEP_CONFIG = ExperimentConfig(trace_length=BENCH_LENGTH,
                                warmup=BENCH_WARMUP)

#: The adaptive study (E11) triples simulation cost; use a subset.
ADAPTIVE_CONFIG = ExperimentConfig(
    trace_length=BENCH_LENGTH, warmup=BENCH_WARMUP,
    benchmarks=["hmmer", "libquantum", "sjeng", "mcf", "gcc", "lbm"])


@pytest.fixture
def print_report(capsys):
    """Print an experiment report so it lands in the benchmark output."""
    def _print(report):
        with capsys.disabled():
            print()
            print(report.render())
            if report.notes:
                print(f"  note: {report.notes}")
    return _print


def run_once(benchmark, function, *args):
    """Run *function* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, rounds=1, iterations=1)
