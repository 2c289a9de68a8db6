"""Unit tests for functional warm-up helpers."""

import pickle

import pytest

from repro.isa.opcodes import OpClass
from repro.isa.program import INSTRUCTION_BYTES
from repro.trace.record import TraceRecord, validate_trace
from repro.uarch.branch.btb import FrontEndPredictor
from repro.uarch.cache.hierarchy import CacheHierarchy
from repro.uarch.params import core_config, small_core_config
from repro.uarch.warmup import reseq, split_warmup, warm_state
from repro.workloads.generator import generate_trace
from repro.workloads.suite import suite_names


def test_reseq_renumbers_densely():
    trace = generate_trace("gcc", 100)
    suffix = reseq(trace[40:])
    validate_trace(suffix)
    assert len(suffix) == 60
    assert suffix[0].pc == trace[40].pc


def test_split_warmup_slices_the_trace_records():
    """Both parts hold the trace's own records: the machines number the
    measured suffix by position, so it is not re-sequenced."""
    trace = generate_trace("gcc", 100)
    prefix, suffix = split_warmup(trace, 30)
    assert len(prefix) == 30 and len(suffix) == 70
    assert all(a is b for a, b in zip(prefix + suffix, trace))
    assert suffix[0].seq == 30


def test_split_warmup_zero():
    trace = generate_trace("gcc", 10)
    prefix, suffix = split_warmup(trace, 0)
    assert prefix == [] and len(suffix) == 10


def test_split_warmup_validation():
    trace = generate_trace("gcc", 10)
    with pytest.raises(ValueError):
        split_warmup(trace, 10)
    with pytest.raises(ValueError):
        split_warmup(trace, -1)


def test_warm_state_touches_caches():
    config = small_core_config()
    hierarchy = CacheHierarchy(config)
    trace = generate_trace("gcc", 2000)
    warm_state(trace, hierarchy, None)
    # Stats were reset after warming, but content is resident.
    assert hierarchy.l1d.stats.accesses == 0
    resident = sum(
        1 for record in trace[-200:]
        if record.is_memory and hierarchy.l1d.contains(record.mem_addr))
    assert resident > 0


def test_warm_state_resets_every_hierarchy_counter():
    """Warm-up must zero MSHR and prefetcher counters, not just caches.

    The old reset re-initialised the three CacheStats objects in place
    and silently leaked MSHR stall cycles and prefetcher counts from
    the warm-up window into measured results.
    """
    config = small_core_config().with_(prefetch_degree=2)
    hierarchy = CacheHierarchy(config)
    prefetcher = hierarchy.prefetcher

    # A line-strided stream inside one page trains and fires the
    # prefetcher; a burst of far-apart same-cycle misses contends for
    # the small MSHR file.
    for i in range(16):
        hierarchy.load(0x10000 + i * 64, now=0)
    for i in range(4 * config.l1d.mshrs):
        hierarchy.load(0x900000 + (i << 20), now=0)
    assert hierarchy.d_mshrs.stall_cycles > 0
    assert prefetcher.prefetches > 0
    assert hierarchy.l1d.stats.accesses > 0

    trace = generate_trace("gcc", 500)
    warm_state(trace, hierarchy, None)

    flat = hierarchy.stats()
    for level in ("l1d", "l1i", "l2"):
        for counter in ("accesses", "hits", "misses", "writebacks"):
            assert flat[level][counter] == 0, (level, counter)
    assert flat["d_mshr_stall_cycles"] == 0
    assert flat["prefetcher"]["prefetches"] == 0
    assert flat["prefetcher"]["useful_hint"] == 0
    # State (as opposed to measurement) survives the reset: the stride
    # table stays trained and warmed lines stay resident.
    assert flat["prefetcher"]["tracked_pcs"] > 0
    resident = sum(
        1 for record in trace[-100:]
        if record.is_memory and hierarchy.l1d.contains(record.mem_addr))
    assert resident > 0


def test_warm_state_trains_predictor_and_resets_stats():
    config = small_core_config()
    predictor = FrontEndPredictor(config.branch)
    trace = generate_trace("gcc", 2000)
    warm_state(trace, None, predictor)
    assert predictor.lookups == 0
    assert predictor.mispredictions == 0
    # The trained predictor should now do well on a repeat pass.
    correct = 0
    controls = [r for r in trace if r.is_control][:200]
    for record in controls:
        if predictor.predict(record):
            correct += 1
        predictor.update(record)
    assert correct / len(controls) > 0.7


def test_split_warmup_empty_trace_with_warmup_raises():
    """Positive warm-up on an empty trace leaves nothing to measure —
    it must raise like any other all-consuming warm-up, not silently
    return ([], [])."""
    with pytest.raises(ValueError):
        split_warmup([], 10)
    # Empty trace with zero warm-up stays valid (nothing to warm).
    prefix, suffix = split_warmup([], 0)
    assert prefix == [] and suffix == []


def _reference_warm_state(records, hierarchy, predictor, line_bytes):
    """The warm-up loop as first written: record properties per record."""
    last_line = -1
    for record in records:
        line = (record.pc * INSTRUCTION_BYTES) // line_bytes
        if line != last_line:
            hierarchy.l1i.access(record.pc * INSTRUCTION_BYTES)
            last_line = line
        if record.is_load:
            hierarchy.l1d.access(record.mem_addr, is_write=False)
        elif record.is_store:
            hierarchy.l1d.access(record.mem_addr, is_write=True)
        if record.is_control:
            predictor.predict(record)
            predictor.update(record)
    predictor.lookups = 0
    predictor.mispredictions = 0
    hierarchy.reset_stats()


def _calls_trace():
    """A gcc prefix between a call and an indirect return, then a call
    left open: generated traces have no jumps, and a direct jump trains
    nothing."""
    call = TraceRecord(0, 900, OpClass.JUMP, 31, (), taken=True, target=0)
    ret = TraceRecord(0, 950, OpClass.JUMP, None, (31,), taken=True,
                      target=901)
    return [call, *generate_trace("gcc", 1000, 5), ret, call]


@pytest.mark.parametrize("name", suite_names("all") + ["calls"])
def test_warm_state_matches_the_reference_loop(name):
    config = core_config("medium")
    trace = (_calls_trace() if name == "calls"
             else generate_trace(name, 2000, 5))
    warmed = []
    for warm in (warm_state, _reference_warm_state):
        hierarchy = CacheHierarchy(config)
        predictor = FrontEndPredictor(config.branch)
        warm(trace, hierarchy, predictor, line_bytes=config.l1i.line_bytes)
        warmed.append(pickle.dumps((hierarchy, predictor)))
    assert warmed[0] == warmed[1]
