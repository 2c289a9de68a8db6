"""Unit tests for the cache hierarchy and MSHR model."""

import pytest

from repro.uarch.cache.hierarchy import CacheHierarchy, MshrFile, make_shared_l2
from repro.uarch.params import small_core_config


class TestMshrFile:
    def test_allocates_freely_under_capacity(self):
        mshrs = MshrFile(4)
        for i in range(4):
            assert mshrs.allocate(now=0, completes_at=100) == 0

    def test_fifth_miss_waits(self):
        mshrs = MshrFile(4)
        for _ in range(4):
            mshrs.allocate(now=0, completes_at=100)
        start = mshrs.allocate(now=0, completes_at=100)
        assert start == 100
        assert mshrs.stall_cycles == 100

    def test_slots_free_over_time(self):
        mshrs = MshrFile(2)
        mshrs.allocate(now=0, completes_at=50)
        mshrs.allocate(now=0, completes_at=60)
        assert mshrs.allocate(now=70, completes_at=120) == 70

    def test_needs_capacity(self):
        with pytest.raises(ValueError):
            MshrFile(0)


class TestHierarchy:
    def test_load_miss_then_hit(self, small_config):
        hierarchy = CacheHierarchy(small_config)
        first = hierarchy.load(0x1000, now=0)
        second = hierarchy.load(0x1000, now=first)
        assert first > second
        assert second == small_config.l1d.hit_latency

    def test_miss_goes_through_l2_to_memory(self, small_config):
        hierarchy = CacheHierarchy(small_config)
        latency = hierarchy.load(0x1000, now=0)
        assert latency >= (small_config.l1d.hit_latency
                           + small_config.l2.hit_latency
                           + small_config.memory_latency)

    def test_l2_hit_cheaper_than_memory(self, small_config):
        hierarchy = CacheHierarchy(small_config)
        hierarchy.load(0x1000, now=0)          # fill L1+L2
        hierarchy.l1d.invalidate_all()          # drop only L1
        latency = hierarchy.load(0x1000, now=0)
        assert latency == (small_config.l1d.hit_latency
                           + small_config.l2.hit_latency)

    def test_shared_l2_between_two_hierarchies(self, small_config):
        shared = make_shared_l2(small_config)
        h0 = CacheHierarchy(small_config, shared)
        h1 = CacheHierarchy(small_config, shared)
        h0.load(0x1000, now=0)
        # Other core misses L1 but hits the shared L2.
        latency = h1.load(0x1000, now=0)
        assert latency == (small_config.l1d.hit_latency
                           + small_config.l2.hit_latency)

    def test_fetch_uses_l1i(self, small_config):
        hierarchy = CacheHierarchy(small_config)
        first = hierarchy.fetch(0x40)
        second = hierarchy.fetch(0x40)
        assert first > second
        assert second == small_config.l1i.hit_latency

    def test_store_allocates(self, small_config):
        hierarchy = CacheHierarchy(small_config)
        hierarchy.store(0x2000, now=0)
        assert hierarchy.load(0x2000, now=0) == \
            small_config.l1d.hit_latency

    def test_stats_shape(self, small_config):
        hierarchy = CacheHierarchy(small_config)
        hierarchy.load(0x1000, now=0)
        stats = hierarchy.stats()
        assert stats["l1d"]["misses"] == 1
        assert stats["l2"]["accesses"] == 1
        assert "d_mshr_stall_cycles" in stats
