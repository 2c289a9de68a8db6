"""Unit tests for the stride prefetcher."""

import pytest

from repro.uarch.cache.hierarchy import CacheHierarchy
from repro.uarch.cache.prefetch import StridePrefetcher
from repro.uarch.params import small_core_config
from repro.uarch.pipeline.machine import simulate_single_core
from repro.workloads.generator import generate_trace


def make_hierarchy():
    return CacheHierarchy(small_core_config())


def test_needs_three_accesses_to_arm():
    hierarchy = make_hierarchy()
    prefetcher = StridePrefetcher(degree=1)
    assert prefetcher.observe(1, 0x1000, hierarchy) == 0   # first sight
    assert prefetcher.observe(1, 0x1040, hierarchy) == 0   # stride seen
    assert prefetcher.observe(1, 0x1080, hierarchy) == 0   # confidence 2?
    issued_total = 0
    for i in range(3, 8):
        issued_total += prefetcher.observe(1, 0x1000 + 0x40 * i,
                                           hierarchy)
    assert issued_total > 0


def test_armed_stream_prefetches_next_lines():
    hierarchy = make_hierarchy()
    prefetcher = StridePrefetcher(degree=2)
    for i in range(6):
        prefetcher.observe(7, 0x2000 + 64 * i, hierarchy)
    # The lines ahead of the stream are now resident.
    assert hierarchy.l1d.contains(0x2000 + 64 * 6)
    assert hierarchy.l1d.contains(0x2000 + 64 * 7)


def test_random_pcs_never_arm():
    hierarchy = make_hierarchy()
    prefetcher = StridePrefetcher(degree=2)
    addresses = [0x1000, 0x9333, 0x2111, 0x7777, 0x100, 0x5050]
    for addr in addresses:
        prefetcher.observe(3, addr, hierarchy)
    assert prefetcher.prefetches == 0


def test_stride_change_resets_confidence():
    hierarchy = make_hierarchy()
    prefetcher = StridePrefetcher(degree=1)
    for i in range(5):
        prefetcher.observe(1, 0x1000 + 64 * i, hierarchy)
    before = prefetcher.prefetches
    prefetcher.observe(1, 0x9000, hierarchy)       # break the stream
    assert prefetcher.observe(1, 0x9100, hierarchy) == 0  # not re-armed


def test_table_capacity_bounded():
    hierarchy = make_hierarchy()
    prefetcher = StridePrefetcher(table_entries=8)
    for pc in range(50):
        prefetcher.observe(pc, 0x1000 * pc, hierarchy)
    assert prefetcher.stats()["tracked_pcs"] <= 8


def test_validation():
    with pytest.raises(ValueError):
        StridePrefetcher(table_entries=0)
    with pytest.raises(ValueError):
        StridePrefetcher(degree=0)


def test_the_prefetch_degree_builds_the_hierarchys_prefetcher():
    assert make_hierarchy().prefetcher is None
    assert "prefetcher" not in make_hierarchy().stats()
    hierarchy = CacheHierarchy(small_core_config().with_(prefetch_degree=3))
    prefetcher = hierarchy.prefetcher
    assert (prefetcher.degree, prefetcher.line_bytes) == (3, 64)
    for i in range(4):
        hierarchy.load(0x3000 + 64 * i, now=i)
    for i in range(4, 8):
        hierarchy.store(0x3000 + 64 * i, now=i)
    assert prefetcher.prefetches > 0
    assert hierarchy.stats()["prefetcher"] == prefetcher.stats()


def test_the_prefetcher_observes_each_demand_access():
    """``load`` and ``store`` time the demand access, then let the
    prefetcher observe it with the address's page as the PC proxy: the
    same latencies, counters and cache contents (in LRU order) as a
    plain hierarchy with a prefetcher fed by hand that way."""
    config = small_core_config()
    hierarchy = CacheHierarchy(config.with_(prefetch_degree=2))
    reference = CacheHierarchy(config)
    prefetcher = StridePrefetcher(degree=2)
    records = [r for r in generate_trace("lbm", 3000) if r.is_memory]
    for now, record in enumerate(records):
        access = "store" if record.is_store else "load"
        latency = getattr(reference, access)(record.mem_addr, now)
        prefetcher.observe(record.mem_addr >> 12, record.mem_addr,
                           reference)
        assert getattr(hierarchy, access)(record.mem_addr, now) == latency
    assert prefetcher.prefetches > 0
    assert hierarchy.stats() == dict(reference.stats(),
                                     prefetcher=prefetcher.stats())
    for level in ("l1d", "l2"):
        assert [list(ways.items()) for ways in
                getattr(hierarchy, level)._sets] \
            == [list(ways.items()) for ways in
                getattr(reference, level)._sets]


def test_prefetching_speeds_up_streaming_workload():
    trace = generate_trace("lbm", 8000)
    base = small_core_config()
    plain = simulate_single_core(trace, base, warmup=2000)
    prefetched = simulate_single_core(
        trace, base.with_(prefetch_degree=2), warmup=2000)
    assert prefetched.cycles < plain.cycles
    assert prefetched.extra["caches"]["prefetcher"]["prefetches"] > 0
    assert "prefetcher" not in plain.extra["caches"]
