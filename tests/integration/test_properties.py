"""Property-based tests (hypothesis) on core data structures/invariants."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fgstp.params import FgStpParams
from repro.fgstp.partitioner import Partitioner
from repro.isa.opcodes import OpClass
from repro.stats.aggregate import geomean
from repro.stats.tables import render_table
from repro.trace.io import read_trace, write_trace
from repro.trace.record import TraceRecord, validate_trace
from repro.uarch.cache.cache import Cache
from repro.uarch.params import CacheParams
from repro.uarch.pipeline.machine import simulate_single_core
from repro.uarch.params import small_core_config
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import ALL_NAMES

from ..fgstp.emission import per_record

# ---------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------

_COMPUTE_CLASSES = [OpClass.IALU, OpClass.IMUL, OpClass.IDIV,
                    OpClass.FADD, OpClass.FMUL, OpClass.FDIV]


@st.composite
def trace_records(draw, max_len=60):
    """Random, structurally valid traces."""
    length = draw(st.integers(min_value=0, max_value=max_len))
    records = []
    for seq in range(length):
        kind = draw(st.sampled_from(["comp", "load", "store", "branch"]))
        pc = draw(st.integers(min_value=0, max_value=200))
        if kind == "comp":
            records.append(TraceRecord(
                seq, pc, draw(st.sampled_from(_COMPUTE_CLASSES)),
                draw(st.integers(min_value=1, max_value=60)),
                tuple(draw(st.lists(
                    st.integers(min_value=1, max_value=60),
                    max_size=2)))))
        elif kind == "load":
            records.append(TraceRecord(
                seq, pc, OpClass.LOAD,
                draw(st.integers(min_value=1, max_value=60)),
                (draw(st.integers(min_value=1, max_value=60)),),
                mem_addr=draw(st.integers(min_value=0, max_value=1 << 20))
                * 8,
                mem_size=8))
        elif kind == "store":
            records.append(TraceRecord(
                seq, pc, OpClass.STORE, None,
                (draw(st.integers(min_value=1, max_value=60)),
                 draw(st.integers(min_value=1, max_value=60))),
                mem_addr=draw(st.integers(min_value=0, max_value=1 << 20))
                * 8,
                mem_size=8))
        else:
            taken = draw(st.booleans())
            records.append(TraceRecord(
                seq, pc, OpClass.BRANCH, None, (1, 2), taken=taken,
                target=draw(st.integers(min_value=0, max_value=200))
                if taken else None))
    return records


# ---------------------------------------------------------------------
# Trace properties
# ---------------------------------------------------------------------

@given(trace_records())
@settings(max_examples=40, deadline=None)
def test_generated_random_traces_validate(records):
    validate_trace(records)


@given(trace_records())
@settings(max_examples=40, deadline=None)
def test_trace_io_roundtrip(records):
    stream = io.BytesIO()
    write_trace(records, stream)
    stream.seek(0)
    assert read_trace(stream) == records


@given(st.sampled_from(ALL_NAMES),
       st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_generator_is_deterministic_and_exact(name, length, seed):
    a = generate_trace(name, length, seed)
    b = generate_trace(name, length, seed)
    assert a == b
    assert len(a) == length
    validate_trace(a)


# ---------------------------------------------------------------------
# Simulator properties
# ---------------------------------------------------------------------

@given(trace_records(max_len=40))
@settings(max_examples=15, deadline=None)
def test_single_core_always_drains_and_bounds_ipc(records):
    config = small_core_config()
    result = simulate_single_core(records, config)
    assert result.instructions == len(records)
    if records:
        assert result.cycles >= len(records) / config.commit_width
        assert 0 < result.ipc <= config.commit_width


@given(trace_records(max_len=40))
@settings(max_examples=10, deadline=None)
def test_partitioner_assignment_invariants(records):
    partitioner = Partitioner(FgStpParams(batch_size=8, window_size=64))
    partitioner.track(records)
    assignments = per_record(partitioner, records, 0)
    assert len(assignments) == len(records)
    for record, assignment in zip(records, assignments):
        assert assignment.seq == record.seq
        assert set(assignment.cores) <= {0, 1}
        if assignment.replicated:
            # Only cheap computation replicates.
            assert not record.is_memory and not record.is_control
        for producer_seq, dest_core in assignment.comm_srcs:
            assert producer_seq < record.seq
            assert dest_core in assignment.cores
        if assignment.mem_dep is not None:
            assert record.is_load
            assert assignment.mem_dep[0] < record.seq


# ---------------------------------------------------------------------
# Cache properties
# ---------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1,
                max_size=300))
@settings(max_examples=30, deadline=None)
def test_cache_counters_consistent(addresses):
    cache = Cache(CacheParams(size_bytes=1024, assoc=2, line_bytes=64,
                              hit_latency=1))
    for addr in addresses:
        cache.access(addr * 8)
    stats = cache.stats
    assert stats.hits + stats.misses == stats.accesses == len(addresses)
    assert 0.0 <= stats.miss_rate <= 1.0


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=100))
@settings(max_examples=30, deadline=None)
def test_cache_small_working_set_eventually_all_hits(addresses):
    """A working set that fits the cache: second pass never misses."""
    cache = Cache(CacheParams(size_bytes=8192, assoc=8, line_bytes=64,
                              hit_latency=1))
    for addr in addresses:
        cache.access(addr * 64)
    misses_before = cache.stats.misses
    for addr in addresses:
        cache.access(addr * 64)
    assert cache.stats.misses == misses_before


# ---------------------------------------------------------------------
# Stats properties
# ---------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                max_size=30))
@settings(max_examples=50)
def test_geomean_bounded_by_min_max(values):
    mean = geomean(values)
    assert min(values) * 0.999 <= mean <= max(values) * 1.001


@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                max_size=10))
@settings(max_examples=30)
def test_geomean_scale_invariance(values):
    scaled = [v * 2.0 for v in values]
    assert geomean(scaled) / geomean(values) == 2.0 or abs(
        geomean(scaled) / geomean(values) - 2.0) < 1e-9


@given(st.lists(st.lists(st.one_of(st.integers(), st.floats(
    allow_nan=False, allow_infinity=False), st.text(max_size=8)),
    min_size=2, max_size=2), max_size=8))
@settings(max_examples=30)
def test_render_table_never_crashes_on_valid_rows(rows):
    text = render_table(["a", "b"], rows)
    assert "a" in text
