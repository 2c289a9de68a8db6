"""Differential smoke tests: Fg-STP vs. single core, cache vs. fresh.

Two cheap-but-broad guards:

* On the medium config, Fg-STP must never be slower than one unmodified
  core by more than a small tolerance on *any* suite benchmark.  The
  paper's whole claim is that fine-grain partitioning helps single-
  thread performance; a regression that flips the sign anywhere in the
  suite should fail loudly, not launder itself into a geomean.
* The disk-backed trace cache must hand back traces equal to fresh
  generation for every benchmark — this guards the binary
  serialisation that parallel sweep workers rely on for bit-identical
  results.
"""

import pytest

from repro.harness.config import QUICK
from repro.harness.parallel import execute_job, make_job
from repro.uarch.params import core_config
from repro.workloads.generator import generate_trace
from repro.workloads.suite import DiskTraceCache, TraceCache, suite_names

#: Fg-STP may be at most this much slower than the single core before
#: the smoke test trips (measured worst case at QUICK sizing: 0.975).
TOLERANCE = 1.05

_BASE = core_config("medium")
_CACHE = TraceCache()


@pytest.mark.parametrize("name", suite_names("all"))
def test_fgstp_never_slower_than_single_beyond_tolerance(name):
    trace = _CACHE.get(name, QUICK.trace_length, QUICK.seed)
    single = execute_job(make_job("single", name, _BASE, QUICK), trace)
    fgstp = execute_job(make_job("fgstp", name, _BASE, QUICK), trace)
    assert fgstp.cycles <= single.cycles * TOLERANCE, (
        f"{name}: fgstp {fgstp.cycles} cycles vs single {single.cycles} "
        f"(ratio {fgstp.cycles / single.cycles:.3f} > {TOLERANCE})")
    assert fgstp.instructions == single.instructions


@pytest.mark.parametrize("name", suite_names("all"))
def test_disk_cache_round_trip_equals_fresh_generation(name, tmp_path):
    length, seed = 300, 11
    writer = DiskTraceCache(tmp_path)
    persisted = writer.get(name, length, seed)
    assert writer.path_for(name, length, seed).exists()

    # A fresh cache instance must load from disk, not regenerate ...
    reader = DiskTraceCache(tmp_path)
    reloaded = reader.get(name, length, seed)
    assert reader.disk_hits == 1 and reader.disk_misses == 0
    # ... and the round-tripped records must equal fresh generation
    # field-for-field (TraceRecord.__eq__ compares every attribute).
    fresh = generate_trace(name, length, seed)
    assert reloaded == fresh
    assert persisted == fresh
