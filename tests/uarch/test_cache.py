"""Unit tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.cache.cache import Cache, CacheStats, MainMemory
from repro.uarch.params import CacheParams


def make_cache(size=1024, assoc=2, line=64, hit=2, next_level=None):
    return Cache(CacheParams(size_bytes=size, assoc=assoc,
                             line_bytes=line, hit_latency=hit),
                 next_level=next_level)


def test_first_access_misses_then_hits():
    cache = make_cache()
    assert cache.access(0x100) == 2  # miss; no next level to charge
    assert cache.stats.misses == 1
    assert cache.access(0x100) == 2
    assert cache.stats.hits == 1


def test_line_granularity():
    cache = make_cache(line=64)
    cache.access(0x100)
    assert cache.access(0x13F) == 2  # same 64-byte line
    assert cache.stats.hits == 1
    cache.access(0x140)  # next line: miss
    assert cache.stats.misses == 2


def test_miss_charges_next_level():
    memory = MainMemory(latency=100)
    cache = make_cache(hit=2, next_level=memory)
    assert cache.access(0x100) == 102
    assert cache.access(0x100) == 2


def test_lru_replacement():
    # 2-way cache with few sets: fill a set, touch the first way, then
    # force an eviction — the untouched way must go.
    cache = make_cache(size=256, assoc=2, line=64)  # 2 sets
    sets = 2
    line = 64
    a, b, c = 0, sets * line, 2 * sets * line  # all map to set 0
    cache.access(a)
    cache.access(b)
    cache.access(a)       # a becomes MRU
    cache.access(c)       # evicts b
    cache.access(a)
    assert cache.stats.hits == 2  # a twice
    cache.access(b)       # must miss again
    assert cache.stats.misses == 4


def test_writeback_counted_for_dirty_victims():
    cache = make_cache(size=256, assoc=2, line=64)
    sets = 2
    line = 64
    a, b, c = 0, sets * line, 2 * sets * line
    cache.access(a, is_write=True)   # dirty
    cache.access(b)
    cache.access(c)                  # evicts dirty a
    assert cache.stats.writebacks == 1
    cache.access(2 * sets * line + sets * line)  # evicts clean b... (d)
    assert cache.stats.writebacks == 1


def test_write_hit_marks_dirty():
    cache = make_cache(size=256, assoc=2, line=64)
    sets, line = 2, 64
    a, b, c = 0, sets * line, 2 * sets * line
    cache.access(a)                  # clean fill
    cache.access(a, is_write=True)   # dirty via write hit
    cache.access(b)
    cache.access(c)                  # evicts a -> writeback
    assert cache.stats.writebacks == 1


def test_contains_has_no_side_effects():
    cache = make_cache()
    assert not cache.contains(0x100)
    cache.access(0x100)
    assert cache.contains(0x100)
    assert cache.stats.accesses == 1


def test_invalidate_all():
    cache = make_cache()
    cache.access(0x100)
    cache.invalidate_all()
    assert not cache.contains(0x100)


def test_miss_rate():
    cache = make_cache()
    cache.access(0)
    cache.access(0)
    cache.access(0)
    assert cache.stats.miss_rate == pytest.approx(1 / 3)


def test_non_power_of_two_line_rejected():
    with pytest.raises(ValueError):
        Cache(CacheParams(size_bytes=1024, assoc=2, line_bytes=48))


def test_main_memory_flat_latency():
    memory = MainMemory(latency=150)
    assert memory.access(0) == 150
    assert memory.access(1 << 40) == 150
    assert memory.stats.accesses == 2


LINE = 64


class ReferenceLRU:
    """List-per-set LRU model of a write-back cache in front of a
    flat-latency memory: each set lists ``[tag, dirty]`` pairs from
    least to most recently used."""

    def __init__(self, sets, assoc, hit, memory_latency):
        self.sets = [[] for _ in range(sets)]
        self.assoc = assoc
        self.hit = hit
        self.memory_latency = memory_latency
        self.stats = CacheStats()

    def access(self, addr, is_write):
        """``(latency, hit, wrote back)`` of one access."""
        tag = addr // LINE
        ways = self.sets[tag % len(self.sets)]
        self.stats.accesses += 1
        for position, (way_tag, dirty) in enumerate(ways):
            if way_tag == tag:
                del ways[position]
                ways.append([tag, dirty or is_write])
                self.stats.hits += 1
                return self.hit, True, False
        self.stats.misses += 1
        wrote_back = False
        if len(ways) == self.assoc:
            wrote_back = ways.pop(0)[1]
            self.stats.writebacks += wrote_back
        ways.append([tag, is_write])
        return self.hit + self.memory_latency, False, wrote_back

    def contains(self, addr):
        tag = addr // LINE
        return any(way_tag == tag
                   for way_tag, _ in self.sets[tag % len(self.sets)])


@st.composite
def access_streams(draw):
    sets = draw(st.integers(min_value=1, max_value=8))
    assoc = draw(st.integers(min_value=1, max_value=16))
    # Up to twice the cache's lines, so sets fill and evict.
    lines = 2 * sets * assoc
    pool = draw(st.lists(st.integers(min_value=0,
                                     max_value=lines * LINE - 1),
                         min_size=1, max_size=lines))
    # Each access: (address, is_write, invalidate everything first).
    stream = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans(),
                                     st.integers(0, 40).map(lambda n: n == 0)),
                           max_size=300))
    return sets, assoc, pool, stream


@settings(max_examples=200, deadline=None)
@given(access_streams())
def test_lru_matches_reference_model(case):
    """Every access's latency, hit, write-back and statistics, then the
    resident lines in LRU order, equal a list-per-set LRU model's."""
    sets, assoc, pool, stream = case
    memory = MainMemory(latency=100)
    cache = make_cache(size=sets * assoc * LINE, assoc=assoc, line=LINE,
                       hit=2, next_level=memory)
    reference = ReferenceLRU(sets, assoc, hit=2, memory_latency=100)
    for addr, is_write, invalidate in stream:
        if invalidate:
            cache.invalidate_all()
            reference.sets = [[] for _ in range(sets)]
            assert not any(cache.contains(a) for a in pool)
        hits, writebacks = cache.stats.hits, cache.stats.writebacks
        latency, hit, wrote_back = reference.access(addr, is_write)
        assert cache.access(addr, is_write=is_write) == latency
        assert cache.stats.hits - hits == hit
        assert cache.stats.writebacks - writebacks == wrote_back
        assert cache.stats == reference.stats
        assert memory.stats.accesses == reference.stats.misses
    for addr in pool:
        assert cache.contains(addr) == reference.contains(addr)
    # Resident lines, their dirty flags and their LRU order.
    assert [list(ways.items()) for ways in cache._sets] \
        == [[tuple(way) for way in ways] for ways in reference.sets]
