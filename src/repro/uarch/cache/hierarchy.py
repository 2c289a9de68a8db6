"""Cache hierarchy assembly and MSHR-limited miss tracking.

A :class:`CacheHierarchy` wires per-core L1I/L1D caches to a shared L2
backed by main memory.  For the 2-core machines (Core Fusion, Fg-STP) two
hierarchies share a single L2/memory pair, which is exactly how the
evaluated CMPs are organised.

The MSHR model is intentionally simple and conservative: each L1D tracks
outstanding miss *slots* by completion cycle; when all slots are busy at
the time a miss wants to allocate, the access is charged the wait until
the earliest slot frees.

A core whose ``prefetch_degree`` is set gets a
:class:`~repro.uarch.cache.prefetch.StridePrefetcher` beside its L1D,
which every demand load and store trains after its access.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from ..params import CoreParams
from .cache import Cache, CacheStats, MainMemory
from .prefetch import StridePrefetcher


class MshrFile:
    """Outstanding-miss tracker limited to ``entries`` concurrent misses."""

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError(f"MSHR file needs >= 1 entry, got {entries}")
        self.entries = entries
        self._busy_until: List[int] = []  # min-heap of completion cycles
        self.stall_cycles = 0

    def allocate(self, now: int, completes_at: int) -> int:
        """Allocate a slot for a miss issued at cycle *now*.

        Returns:
            The cycle the miss actually starts (== *now* unless the file
            was full, in which case the start is delayed until the
            earliest outstanding miss completes).
        """
        heap = self._busy_until
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        start = now
        if len(heap) >= self.entries:
            start = heapq.heappop(heap)
            self.stall_cycles += start - now
        heapq.heappush(heap, completes_at + (start - now))
        return start

    def reset(self) -> None:
        self._busy_until.clear()
        self.stall_cycles = 0


class CacheHierarchy:
    """Per-core L1s over a (possibly shared) L2 + memory, and the L1D's
    stride prefetcher when *params* sets a ``prefetch_degree``.

    Args:
        params: The owning core's configuration.
        shared_l2: Pass an existing L2 to share it between cores; when
            ``None`` a private L2/memory pair is created from *params*.
    """

    def __init__(self, params: CoreParams,
                 shared_l2: Optional[Cache] = None):
        self.params = params
        if shared_l2 is None:
            memory = MainMemory(latency=params.memory_latency)
            shared_l2 = Cache(params.l2, next_level=memory, name="l2")
        self.l2 = shared_l2
        self.l1d = Cache(params.l1d, next_level=shared_l2, name="l1d")
        self.l1i = Cache(params.l1i, next_level=shared_l2, name="l1i")
        self.d_mshrs = MshrFile(params.l1d.mshrs)
        self.prefetcher = (
            StridePrefetcher(degree=params.prefetch_degree,
                             line_bytes=params.l1d.line_bytes)
            if params.prefetch_degree else None)

    def load(self, addr: int, now: int) -> int:
        """Data-read latency for *addr* issued at cycle *now*.

        Includes MSHR availability delay on L1D misses.  The prefetcher
        observes the access after it, with the address's page as the
        PC proxy (distinct streams keep distinct table entries because
        their address ranges differ by design).
        """
        if self.l1d.contains(addr):
            latency = self.l1d.access(addr, is_write=False)
        else:
            latency = self.l1d.access(addr, is_write=False)
            start = self.d_mshrs.allocate(now, now + latency)
            latency = (start - now) + latency
        if self.prefetcher is not None:
            self.prefetcher.observe(addr >> 12, addr, self)
        return latency

    def store(self, addr: int, now: int) -> int:
        """Data-write latency for *addr* (write-back, write-allocate);
        the prefetcher observes it as it does a load."""
        if self.l1d.contains(addr):
            latency = self.l1d.access(addr, is_write=True)
        else:
            latency = self.l1d.access(addr, is_write=True)
            start = self.d_mshrs.allocate(now, now + latency)
            latency = (start - now) + latency
        if self.prefetcher is not None:
            self.prefetcher.observe(addr >> 12, addr, self)
        return latency

    def fetch(self, pc_addr: int) -> int:
        """Instruction-fetch latency for the byte address *pc_addr*."""
        return self.l1i.access(pc_addr, is_write=False)

    def stats(self) -> dict:
        """Flat dictionary of every level's counters."""
        def level(cache):
            stats: CacheStats = cache.stats
            return {
                "accesses": stats.accesses,
                "hits": stats.hits,
                "misses": stats.misses,
                "miss_rate": stats.miss_rate,
                "writebacks": stats.writebacks,
            }
        record = {
            "l1d": level(self.l1d),
            "l1i": level(self.l1i),
            "l2": level(self.l2),
            "d_mshr_stall_cycles": self.d_mshrs.stall_cycles,
        }
        if self.prefetcher is not None:
            record["prefetcher"] = self.prefetcher.stats()
        return record

    def reset_stats(self) -> None:
        """Zero every statistic counter in the hierarchy.

        Covers the per-level cache counters *and* the MSHR stall
        counter and the prefetcher's counters — unlike
        resetting the :class:`CacheStats` objects one by one, which is
        how warm-up used to silently leak those into measured results.
        Cache contents, MSHR occupancy and prefetcher training are
        untouched: this separates *measurement* from *state*.
        """
        self.l1d.stats = CacheStats()
        self.l1i.stats = CacheStats()
        self.l2.stats = CacheStats()
        self.d_mshrs.stall_cycles = 0
        if self.prefetcher is not None:
            self.prefetcher.reset_stats()

    def reset(self) -> None:
        """Invalidate everything (machine reconfiguration)."""
        self.l1d.invalidate_all()
        self.l1i.invalidate_all()
        self.l2.invalidate_all()
        self.d_mshrs.reset()


def make_shared_l2(params: CoreParams) -> Cache:
    """Create an L2 (backed by memory) suitable for sharing across cores."""
    memory = MainMemory(latency=params.memory_latency)
    return Cache(params.l2, next_level=memory, name="l2")
