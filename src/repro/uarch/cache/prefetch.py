"""Hardware stream prefetchers.

The evaluated CMP generation (2006-2011) shipped with stride/stream
prefetchers; streaming workloads (libquantum, lbm, bwaves) behave very
differently with one.  This module provides a classic per-PC stride
prefetcher that sits next to the L1D and issues prefetches into the
hierarchy on every demand access.

The prefetcher is part of the core configuration:
:class:`~repro.uarch.cache.hierarchy.CacheHierarchy` builds one when
``CoreParams.prefetch_degree`` is set and feeds it from its ``load`` and
``store``.  The reference configs leave it off, so the headline
experiments match the base model; the E13 ablation turns it on for all
machines and asks whether the who-wins structure survives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:
    from .hierarchy import CacheHierarchy


class StridePrefetcher:
    """Per-PC stride detector with confidence and configurable degree.

    Classic reference-prediction-table design: each static memory
    instruction (PC) tracks its last address and stride; two consecutive
    matching strides arm the entry, after which every access prefetches
    ``degree`` lines ahead.

    Args:
        table_entries: Tracked static memory instructions.
        degree: Lines prefetched ahead once a stream is armed.
        line_bytes: Cache line size (prefetch granularity).
    """

    def __init__(self, table_entries: int = 256, degree: int = 2,
                 line_bytes: int = 64):
        if table_entries <= 0:
            raise ValueError(f"table_entries must be positive: "
                             f"{table_entries}")
        if degree <= 0:
            raise ValueError(f"degree must be positive: {degree}")
        self.table_entries = table_entries
        self.degree = degree
        self.line_bytes = line_bytes
        # pc -> (last_addr, stride, confidence)
        self._table: Dict[int, Tuple[int, int, int]] = {}
        self.prefetches = 0
        self.useful_hint = 0  # prefetches to not-yet-resident lines

    def observe(self, pc: int, addr: int,
                hierarchy: CacheHierarchy) -> int:
        """Observe a demand access; issue prefetches when armed.

        Returns:
            Number of prefetches issued for this access.
        """
        entry = self._table.get(pc)
        issued = 0
        if entry is None:
            if len(self._table) >= self.table_entries:
                # Cheap random-ish eviction: drop an arbitrary entry.
                self._table.pop(next(iter(self._table)))
            self._table[pc] = (addr, 0, 0)
            return 0
        last_addr, stride, confidence = entry
        new_stride = addr - last_addr
        if new_stride != 0 and new_stride == stride:
            confidence = min(confidence + 1, 3)
        elif new_stride != 0:
            confidence = 0
        self._table[pc] = (addr, new_stride if new_stride else stride,
                           confidence)
        if confidence >= 2 and new_stride != 0:
            # Prefetch at line granularity: small strides walk within a
            # line, so the useful targets are the next line(s) in the
            # stride's direction.
            line = self.line_bytes
            step = max(abs(new_stride), line)
            direction = 1 if new_stride > 0 else -1
            for ahead in range(1, self.degree + 1):
                target = (addr + direction * step * ahead) // line * line
                if target < 0:
                    break
                if not hierarchy.l1d.contains(target):
                    self.useful_hint += 1
                    # Bring the line in; latency is overlapped (the
                    # standard timeliness idealisation for degree>=2).
                    hierarchy.l1d.access(target, is_write=False)
                issued += 1
                self.prefetches += 1
        return issued

    def reset_stats(self) -> None:
        """Zero the issue counters; keep the trained stride table."""
        self.prefetches = 0
        self.useful_hint = 0

    def stats(self) -> dict:
        return {
            "prefetches": self.prefetches,
            "useful_hint": self.useful_hint,
            "tracked_pcs": len(self._table),
        }
