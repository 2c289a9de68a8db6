"""The per-uop pipeline tracer: a bounded, sampled event ring.

Attachment follows the same zero-cost observer contract as the machines'
``commit_hook``: a machine holds ``tracer=None`` by default and guards
every recording site with ``if tracer is not None`` inside branches it
already takes, so an untraced run does no per-cycle work and produces
bit-identical results (asserted by ``tests/obs/``).

Two mechanisms keep multi-million-cycle runs tractable:

* a **bounded ring buffer** (``collections.deque(maxlen=capacity)``):
  recording never allocates beyond the cap; the oldest events fall off
  and are counted in :attr:`PipelineTracer.dropped`;
* **deterministic sampling windows**: with ``sample_window=W`` and
  ``sample_period=P``, cycles are bucketed into windows of W cycles and
  only every P-th window records lifecycle events (window 0, P, 2P, ...)
  — a pure function of the cycle number, so two runs of the same trace
  sample identical windows.  ``sample_window=0`` (default) records
  everything.  Rare, load-bearing instants (squash, reconfig, watchdog,
  chaos) are always recorded regardless of sampling.

Region-based machines (the adaptive machine) restart cycles and sequence
numbers per region; :meth:`PipelineTracer.begin_epoch` installs the
offsets that shift subsequent events back into the machine-global
timeline.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional

from .events import (CHAOS, RECONFIG, SQUASH, UOP, WATCHDOG,
                     INSTANT_KINDS, TraceEvent)

#: Default ring capacity (events).
DEFAULT_CAPACITY = 65536

#: Instants recorded even inside unsampled windows.
_ALWAYS = frozenset((SQUASH, RECONFIG, WATCHDOG, CHAOS))


class PipelineTracer:
    """Bounded ring-buffer recorder for pipeline events.

    Args:
        capacity: Ring size in events (oldest dropped beyond it).
        sample_window: Cycle-window size for deterministic sampling
            (0 = record every cycle).
        sample_period: Record every N-th window (1 = all windows).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 sample_window: int = 0, sample_period: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        if sample_window < 0:
            raise ValueError(
                f"sample_window must be >= 0: {sample_window}")
        if sample_period < 1:
            raise ValueError(
                f"sample_period must be >= 1: {sample_period}")
        self.capacity = capacity
        self.sample_window = sample_window
        self.sample_period = sample_period
        self.recorded = 0
        self._ring: deque = deque(maxlen=capacity)
        self._cycle_offset = 0
        self._seq_offset = 0
        self.epochs = 0

    # -- sampling ------------------------------------------------------

    def sampled(self, cycle: int) -> bool:
        """True when lifecycle events at (local) *cycle* are recorded.

        A pure function of the cycle number — two runs of the same
        trace sample the same windows.
        """
        window = self.sample_window
        if not window:
            return True
        return (cycle // window) % self.sample_period == 0

    # -- epochs (region-based machines) --------------------------------

    def begin_epoch(self, cycle_offset: int, seq_offset: int = 0) -> None:
        """Start a new region: local cycle 0 / seq 0 map to the given
        machine-global offsets for all subsequent events."""
        self._cycle_offset = cycle_offset
        self._seq_offset = seq_offset
        self.epochs += 1

    # -- recording -----------------------------------------------------

    def commit(self, uop, cycle: int) -> None:
        """Record one uop's lifecycle at its commit cycle.

        All stage timestamps (``fetch_cycle`` .. ``commit_cycle``) are
        already on the uop at commit time, so one ring entry captures
        the whole journey.
        """
        if not self.sampled(cycle):
            return
        cycle_offset = self._cycle_offset
        complete = uop.complete_cycle
        event = TraceEvent(
            UOP, cycle + cycle_offset,
            seq=uop.seq + self._seq_offset,
            uid=uop.uid,
            core=uop.core_id,
            pc=uop.record.pc,
            op=uop.record.op_class.name,
            replica=uop.replica,
            stages=(uop.fetch_cycle + cycle_offset,
                    uop.dispatch_cycle + cycle_offset,
                    uop.issue_cycle + cycle_offset,
                    (-1 if complete is None else complete + cycle_offset),
                    cycle + cycle_offset))
        self._ring.append(event)
        self.recorded += 1

    def commits(self, uops: Iterable, cycle: int) -> None:
        """Record a batch of uops retiring at *cycle* (fast path)."""
        if not self.sampled(cycle):
            return
        for uop in uops:
            self.commit(uop, cycle)

    def instant(self, kind: str, cycle: int, seq: int = -1,
                core: int = -1, detail: str = "", dur: int = 0) -> None:
        """Record a point event.  Rare structural instants (squash,
        reconfig, watchdog, chaos) bypass sampling."""
        if kind not in _ALWAYS and not self.sampled(cycle):
            return
        self._ring.append(TraceEvent(
            kind, cycle + self._cycle_offset,
            seq=(seq + self._seq_offset if seq >= 0 else -1),
            core=core, detail=detail, dur=dur))
        self.recorded += 1

    # -- reading -------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.recorded - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Buffered events in recording order, optionally by kind."""
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event.kind == kind]

    def tail(self, count: int = 32) -> List[dict]:
        """The last *count* events as JSON-able dicts (crash dumps)."""
        if count <= 0:
            return []
        tail = list(self._ring)[-count:]
        return [event.as_dict() for event in tail]

    def clear(self) -> None:
        """Drop all buffered events and reset counters (epochs stay)."""
        self._ring.clear()
        self.recorded = 0

    def summary(self) -> dict:
        """JSON-able tracer health counters."""
        kinds: dict = {}
        for event in self._ring:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "buffered": len(self._ring),
            "dropped": self.dropped,
            "sample_window": self.sample_window,
            "sample_period": self.sample_period,
            "epochs": self.epochs,
            "by_kind": kinds,
        }


__all__ = ["PipelineTracer", "DEFAULT_CAPACITY", "INSTANT_KINDS"]
