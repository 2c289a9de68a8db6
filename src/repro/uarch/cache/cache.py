"""Set-associative cache model with LRU replacement and write-back lines.

The model is *timing-oriented*: it tracks which lines are resident (tags
only, no data — trace-driven simulation has the data in the trace) and
answers "how many cycles does this access take", charging miss latency
from the next level.  Dirty-line write-backs are counted but modelled as
fully pipelined (no added latency), a standard simplification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..params import CacheParams


@dataclass
class CacheStats:
    """Per-cache access counters."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.writebacks += other.writebacks


class Cache:
    """One set-associative, write-back, LRU cache level.

    Args:
        params: Geometry/timing description.
        next_level: The cache behind this one, or ``None`` when misses go
            to memory (the owner charges ``memory_latency`` itself via a
            :class:`MainMemory` next level).
        name: Label used in stats reports.
    """

    def __init__(self, params: CacheParams,
                 next_level: Optional["MemoryLevel"] = None,
                 name: str = "cache"):
        self.params = params
        self.next_level = next_level
        self.name = name
        self.stats = CacheStats()
        self._num_sets = params.num_sets
        self._line_shift = params.line_bytes.bit_length() - 1
        if (1 << self._line_shift) != params.line_bytes:
            raise ValueError(
                f"line size must be a power of two: {params.line_bytes}")
        # One dict per set: tag -> dirty flag, LRU order = insertion order
        # (a touch re-inserts the tag).  A plain dict pickles far faster
        # than an OrderedDict, which dominates a checkpoint payload.
        # Only pop, item assignment and iteration order are used, so
        # OrderedDict sets restored from older checkpoints still work.
        self._sets = [{} for _ in range(self._num_sets)]

    def _index_tag(self, addr: int):
        line = addr >> self._line_shift
        return line % self._num_sets, line

    def access(self, addr: int, is_write: bool = False) -> int:
        """Access *addr*; returns total latency in cycles.

        A hit costs ``hit_latency``.  A miss additionally pays the next
        level's access latency (recursively) and allocates the line here,
        possibly evicting the LRU way (write-back counted when dirty).
        """
        self.stats.accesses += 1
        index, tag = self._index_tag(addr)
        ways = self._sets[index]
        if tag in ways:
            self.stats.hits += 1
            ways[tag] = ways.pop(tag) or is_write
            return self.params.hit_latency

        self.stats.misses += 1
        miss_latency = 0
        if self.next_level is not None:
            miss_latency = self.next_level.access(addr, is_write=False)
        self._allocate(ways, tag, dirty=is_write)
        return self.params.hit_latency + miss_latency

    def _allocate(self, ways: dict, tag: int, dirty: bool) -> None:
        if len(ways) >= self.params.assoc:
            if ways.pop(next(iter(ways))):
                self.stats.writebacks += 1
        ways[tag] = dirty

    def contains(self, addr: int) -> bool:
        """True when the line holding *addr* is resident (no side effect)."""
        index, tag = self._index_tag(addr)
        return tag in self._sets[index]

    def invalidate_all(self) -> None:
        """Drop every line (used on machine reconfiguration)."""
        for ways in self._sets:
            ways.clear()


class MainMemory:
    """Terminal memory level with a flat access latency."""

    def __init__(self, latency: int = 150, name: str = "dram"):
        self.latency = latency
        self.name = name
        self.stats = CacheStats()

    def access(self, addr: int, is_write: bool = False) -> int:
        self.stats.accesses += 1
        self.stats.misses += 1  # every DRAM access is a "miss" upstream
        return self.latency


#: Anything with an ``access(addr, is_write) -> int`` method.
MemoryLevel = object
