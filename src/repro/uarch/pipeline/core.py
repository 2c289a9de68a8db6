"""Cycle-level out-of-order core.

:class:`CycleCore` models one out-of-order core at cycle granularity:
fetch buffer -> dispatch (rename) into ROB/IQ/LSQ -> dataflow issue with
functional-unit and width constraints -> completion -> in-order commit.

The core is deliberately *fetch-agnostic*: instructions are appended to
its fetch buffer by a fetch unit (:mod:`repro.uarch.pipeline.fetch` for a
self-fetching machine, or the Fg-STP orchestrator's global front end).
This is what lets the exact same core model serve as:

* the single-core baselines (small / medium),
* one fused half of the Core Fusion machine (via clustering support), and
* each of the two collaborating cores of Fg-STP.

Modelling notes / simplifications (standard for trace-driven models):

* Wrong-path instructions are not simulated; a mispredicted control
  instruction stops fetch until it resolves, plus a redirect penalty.
* Functional units are fully pipelined; the per-cycle constraints are the
  issue width, the per-pool FU counts and (when clustered) the
  per-cluster issue width.
* Stores complete one cycle after issue; their cache write is charged at
  commit for statistics but does not stall retirement.
* Register renaming is implicit: dependences are resolved at dispatch
  against the youngest in-flight writer, so WAR/WAW hazards never stall.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Callable, Dict, List, Optional

from ...integrity.errors import PipelineDrainError
from ...integrity.forensics import uop_brief
from ...isa.opcodes import OpClass
from ..cache.hierarchy import CacheHierarchy
from ..params import FU_POOL_OF_CLASS, CoreParams

#: A cycle value no real event ever reaches (events are bounded by the
#: machines' ``max_cycles`` safety valve, which is far smaller).
NO_EVENT = 1 << 62

#: Environment override for idle-cycle skip-ahead (``0`` disables).
ENV_SKIP_AHEAD = "REPRO_SKIP_AHEAD"

#: Issue pool per op class, indexable by the IntEnum value (hot path —
#: avoids a dict hash per dispatched uop).
_POOL_OF_CLASS = tuple(FU_POOL_OF_CLASS[op_class] for op_class in OpClass)

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE


from .uop import (
    COMMITTED,
    COMPLETED,
    DISPATCHED,
    ISSUED,
    SQUASHED,
    Uop,
    ValueTag,
)


def skip_ahead_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve a machine's ``skip_ahead`` setting.

    ``None`` (the default everywhere) reads the ``REPRO_SKIP_AHEAD``
    environment variable, enabled unless it is set to ``0``/``false``/
    ``off``; an explicit boolean wins over the environment.
    """
    if flag is not None:
        return bool(flag)
    raw = os.environ.get(ENV_SKIP_AHEAD)
    if raw is None:
        return True
    return raw.strip().lower() not in ("0", "false", "off", "no")


class CoreStats:
    """Counters accumulated by one core over a run."""

    __slots__ = ("committed", "dispatched", "issued", "squashed_uops",
                 "load_forwards", "rob_full_stalls", "iq_full_stalls",
                 "lsq_full_stalls", "cycles_active", "commit_slots")

    def __init__(self):
        self.committed = 0
        self.dispatched = 0
        self.issued = 0
        self.squashed_uops = 0
        self.load_forwards = 0
        self.rob_full_stalls = 0
        self.iq_full_stalls = 0
        self.lsq_full_stalls = 0
        self.cycles_active = 0
        #: Cycle-accounting ledger: cause -> commit slots charged to it
        #: (see :mod:`repro.stats.cpistack` for the taxonomy and the
        #: sum-to-total invariant).
        self.commit_slots: Dict[str, int] = {}

    def as_dict(self) -> Dict[str, int]:
        record = {name: getattr(self, name) for name in self.__slots__
                  if name != "commit_slots"}
        record["commit_slots"] = dict(self.commit_slots)
        return record


class CycleCore:
    """One out-of-order core (see module docstring).

    Args:
        params: Core configuration.
        hierarchy: This core's cache hierarchy (L1s, shared or private L2).
        name: Label used in stats.
        num_clusters: 1 for a normal core; 2 for a Core Fusion machine
            built from two fused cores.
        cross_cluster_latency: Extra cycles a value needs to cross from
            one cluster's bypass network to the other (Core Fusion's
            operand-crossbar cost).
        cluster_issue_width: Per-cluster issue limit (defaults to
            ``issue_width // num_clusters``).

    The completion and retirement callbacks are arguments of
    :meth:`phase_complete` and :meth:`phase_commit`, not attributes: a
    core that stored its owner's bound methods would form a reference
    cycle with it, and every finished machine would wait for the cycle
    collector.
    """

    def __init__(self, params: CoreParams, hierarchy: CacheHierarchy,
                 name: str = "core0",
                 num_clusters: int = 1,
                 cross_cluster_latency: int = 0,
                 cluster_issue_width: Optional[int] = None):
        if num_clusters < 1:
            raise ValueError(f"num_clusters must be >= 1: {num_clusters}")
        self.params = params
        self.hierarchy = hierarchy
        self.name = name
        self.num_clusters = num_clusters
        self.cross_cluster_latency = cross_cluster_latency
        self.cluster_issue_width = (
            cluster_issue_width
            if cluster_issue_width is not None
            else max(1, params.issue_width // num_clusters))
        self.stats = CoreStats()
        #: Execution latency per op class, indexable by the IntEnum
        #: value (hot path — avoids a dict hash per issued uop).
        self._latency_of = tuple(
            max(1, params.latencies.get(op_class, 1))
            for op_class in OpClass)

        self._fetch_buffer: deque = deque()
        self._fetch_capacity = max(2 * params.fetch_width, 8)
        self._rob: deque = deque()
        self._iq_count = 0
        self._lsq_count = 0
        self._ready_heap: List = []       # (ready_cycle, seq, uid, uop)
        self._completion_heap: List = []  # (complete_cycle, uid, uop)
        self._reg_map: Dict[int, Uop] = {}     # arch reg -> in-flight writer
        self._store_map: Dict[int, Uop] = {}   # address -> in-flight store
        self._next_cluster = 0
        self._cluster_dispatched = [0] * num_clusters
        self._dispatch_blocked: Optional[str] = None  # this cycle's cause

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def rob_head(self) -> Optional[Uop]:
        return self._rob[0] if self._rob else None

    def busy(self) -> bool:
        """True while any uop is anywhere in the pipeline."""
        return bool(self._rob or self._fetch_buffer)

    def rob_occupancy(self) -> int:
        return len(self._rob)

    def snapshot(self, limit: int = 8) -> Dict:
        """JSON-able forensic snapshot of the core's in-flight state.

        Captures the window heads and occupancies the post-mortem needs
        to explain a stall: the ROB head (the instruction everything
        waits behind), the oldest *limit* ROB entries, and structure
        occupancies.  Cheap enough to call only at failure time.
        """
        head = self.rob_head
        return {
            "name": self.name,
            "rob_occupancy": len(self._rob),
            "iq_occupancy": self._iq_count,
            "lsq_occupancy": self._lsq_count,
            "fetch_buffer": len(self._fetch_buffer),
            "dispatch_blocked": self._dispatch_blocked,
            "committed": self.stats.committed,
            "rob_head": uop_brief(head) if head is not None else None,
            "rob_oldest": [uop_brief(uop) for uop
                           in list(self._rob)[:limit]],
        }

    # ------------------------------------------------------------------
    # Pipeline phases — the machine/orchestrator composes these per cycle
    # ------------------------------------------------------------------

    def phase_commit(self, cycle: int,
                     gate: Optional[Callable[[Uop], bool]] = None,
                     budget: Optional[int] = None,
                     on_commit: Optional[Callable[[Uop, int], None]] = None
                     ) -> List[Uop]:
        """Retire up to ``commit_width`` completed uops from the ROB head.

        Args:
            gate: Optional predicate consulted per uop; retirement stops
                at the first uop for which it returns False (Fg-STP's
                global in-order commit gate).
            budget: Optional override of the remaining commit slots this
                cycle (used when the phase runs multiple passes per cycle).
            on_commit: Optional callback ``(uop, cycle)`` fired as each
                uop retires (Fg-STP's global commit bookkeeping).

        Returns:
            The uops retired by this call, oldest first.
        """
        committed: List[Uop] = []
        rob = self._rob
        if not rob:
            return committed
        width = self.params.commit_width if budget is None else budget
        stats = self.stats
        store_map = self._store_map
        reg_map = self._reg_map
        count = 0
        while rob and count < width:
            head = rob[0]
            if head.state != COMPLETED or head.complete_cycle >= cycle:
                break
            if gate is not None and not gate(head):
                break
            rob.popleft()
            head.state = COMMITTED
            head.commit_cycle = cycle
            record = head.record
            if head.is_memory:
                self._lsq_count -= 1
                if record.op_class == _STORE:
                    # Charge the write for statistics at retirement.
                    address = record.mem_addr
                    self.hierarchy.store(address, cycle)
                    if store_map.get(address) is head:
                        del store_map[address]
            dst = record.dst
            if dst is not None and reg_map.get(dst) is head:
                del reg_map[dst]
            stats.committed += 1
            count += 1
            committed.append(head)
            if on_commit is not None:
                on_commit(head, cycle)
        return committed

    def phase_complete(self, cycle: int,
                       on_complete: Optional[Callable[[Uop, int], None]]
                       = None) -> List[Uop]:
        """Move uops whose execution finished at/before *cycle* to
        COMPLETED, firing *on_complete* ``(uop, cycle)`` for each (the
        Fg-STP machine hooks communication sends and memory-violation
        checks there)."""
        done: List[Uop] = []
        heap = self._completion_heap
        heappop = heapq.heappop
        while heap and heap[0][0] <= cycle:
            uop = heappop(heap)[2]
            if uop.state == SQUASHED:
                continue
            uop.state = COMPLETED
            done.append(uop)
            if on_complete is not None:
                on_complete(uop, cycle)
        return done

    def phase_issue(self, cycle: int) -> int:
        """Issue ready uops, oldest first, under width/FU constraints.

        An issued uop learns its completion cycle, which wakes its
        consumers: each one whose last producer this was enters the
        ready heap.

        Returns:
            Number of uops issued this cycle.
        """
        heap = self._ready_heap
        if not heap or heap[0][0] > cycle:
            return 0
        issued = 0
        params = self.params
        width = params.issue_width
        pool_params = params.fu_pool
        pool_used: Dict[str, int] = {}
        # The per-cluster cap cannot bind on one cluster allowed the
        # whole issue width.
        cluster_cap = self.cluster_issue_width
        capped = self.num_clusters > 1 or cluster_cap < width
        if capped:
            cluster_used = [0] * self.num_clusters
        deferred: List = []
        heappop = heapq.heappop
        heappush = heapq.heappush
        completion_heap = self._completion_heap
        latency_of = self._latency_of
        cross = self.cross_cluster_latency
        stats = self.stats

        while heap and issued < width:
            if heap[0][0] > cycle:
                break
            entry = heappop(heap)
            uop = entry[3]
            if uop.state != DISPATCHED or entry[0] < uop.ready_cycle:
                continue  # squashed, already issued, or stale (delayed)
            pool = uop.pool
            if capped:
                cluster = uop.cluster
                if cluster_used[cluster] >= cluster_cap:
                    deferred.append((cycle + 1, entry[1], entry[2], uop))
                    continue
            used = pool_used.get(pool, 0)
            if used >= pool_params.get(pool, 1):
                deferred.append((cycle + 1, entry[1], entry[2], uop))
                continue
            pool_used[pool] = used + 1
            if capped:
                cluster_used[cluster] += 1
            issued += 1

            uop.state = ISSUED
            uop.issue_cycle = cycle
            record = uop.record
            op_class = record.op_class
            if op_class == _LOAD:
                if uop.forwarded:
                    latency = 1
                    stats.load_forwards += 1
                else:
                    latency = max(1, self.hierarchy.load(record.mem_addr,
                                                         cycle))
            elif op_class == _STORE:
                latency = 1
            else:
                latency = latency_of[op_class]
            complete = cycle + latency
            uop.complete_cycle = complete
            heappush(completion_heap, (complete, uop.uid, uop))
            # Wake consumers: their producer's completion time is now
            # known.
            for consumer in uop.consumers:
                if consumer.state == SQUASHED:
                    continue
                seen = complete
                if cross and consumer.cluster != uop.cluster:
                    seen += cross
                if seen > consumer.operand_ready:
                    consumer.operand_ready = seen
                consumer.pending -= 1
                if consumer.pending == 0 and consumer.state == DISPATCHED:
                    self._enqueue_ready(consumer)
            uop.consumers = []

        self._iq_count -= issued
        stats.issued += issued
        for entry in deferred:
            heappush(heap, entry)
        return issued

    def phase_dispatch(self, cycle: int) -> int:
        """Rename/dispatch from the fetch buffer into ROB/IQ/LSQ.

        Each dispatched uop resolves its sources against the youngest
        in-flight writers (registers, an older store to its address for
        a load, and any inter-core value tags); with every producer's
        completion time known it enters the ready heap at once.

        When clustered (Core Fusion), each cluster's rename stage only
        handles its own width per cycle, so steering falls back to the
        other cluster once the preferred one is full — the forced chain
        splits this causes are a real fusion overhead.

        Returns:
            Number of uops dispatched this cycle.
        """
        buffer = self._fetch_buffer
        self._dispatch_blocked = None
        if not buffer:
            return 0
        dispatched = 0
        params = self.params
        width = params.fetch_width  # dispatch width == front width
        rob_entries = params.rob_entries
        iq_entries = params.iq_entries
        lsq_entries = params.lsq_entries
        rob = self._rob
        stats = self.stats
        reg_map = self._reg_map
        store_map = self._store_map
        ready_heap = self._ready_heap
        heappush = heapq.heappush
        cross = self.cross_cluster_latency
        iq_count = self._iq_count
        lsq_count = self._lsq_count
        earliest = cycle + 1
        clustered = self.num_clusters > 1
        if clustered:
            self._cluster_dispatched = [0] * self.num_clusters
        while buffer and dispatched < width:
            uop = buffer[0]
            if len(rob) >= rob_entries:
                stats.rob_full_stalls += 1
                self._dispatch_blocked = "rob_full"
                break
            if iq_count >= iq_entries:
                stats.iq_full_stalls += 1
                self._dispatch_blocked = "iq_full"
                break
            is_memory = uop.is_memory
            if is_memory and lsq_count >= lsq_entries:
                stats.lsq_full_stalls += 1
                self._dispatch_blocked = "lsq_full"
                break
            buffer.popleft()
            dispatched += 1

            uop.state = DISPATCHED
            uop.dispatch_cycle = cycle
            record = uop.record
            op_class = record.op_class
            uop.pool = _POOL_OF_CLASS[op_class]
            if clustered:
                uop.cluster = self._steer(uop)
            rob.append(uop)
            iq_count += 1
            if is_memory:
                lsq_count += 1

            pending = 0
            ready_max = 0
            for src in record.srcs:
                producer = reg_map.get(src)
                if producer is None:
                    continue
                seen = producer.complete_cycle
                if seen is not None:
                    if cross and producer.cluster != uop.cluster:
                        seen += cross
                    if seen > ready_max:
                        ready_max = seen
                else:
                    producer.consumers.append(uop)
                    pending += 1

            # In-core store-to-load forwarding: a load depends on the
            # youngest earlier in-flight store to the same address.
            if op_class == _LOAD:
                store = store_map.get(record.mem_addr)
                if store is not None and store.state != COMMITTED:
                    uop.forwarded = True
                    seen = store.complete_cycle
                    if seen is not None:
                        if seen > ready_max:
                            ready_max = seen
                    else:
                        store.consumers.append(uop)
                        pending += 1
            elif op_class == _STORE:
                store_map[record.mem_addr] = uop

            # External dependences (inter-core values) attached by the
            # orchestrator before feeding.
            for tag in uop.extra_deps:
                seen = tag.ready_cycle
                if seen is not None:
                    if seen > ready_max:
                        ready_max = seen
                else:
                    tag.consumers.append(uop)
                    pending += 1

            dst = record.dst
            if dst is not None:
                reg_map[dst] = uop

            uop.pending = pending
            ready = uop.operand_ready
            if ready_max > ready:
                ready = uop.operand_ready = ready_max
            if pending == 0:
                if ready < earliest:
                    ready = earliest
                uop.ready_cycle = ready
                heappush(ready_heap, (ready, uop.seq, uop.uid, uop))
        self._iq_count = iq_count
        self._lsq_count = lsq_count
        stats.dispatched += dispatched
        return dispatched

    # ------------------------------------------------------------------
    # Cycle accounting (CPI-stack attribution)
    # ------------------------------------------------------------------

    def attribute_cycle(self, cycle: int, committed: int,
                        frontend_cause: str = "fetch") -> None:
        """Charge this cycle's ``commit_width`` slots, one cause each.

        Called by the owning machine exactly once per simulated cycle,
        after every pipeline phase has run.  ``committed`` slots are
        charged to ``retire``; the remaining empty slots are charged to
        a single cause chosen by blaming the oldest in-flight
        instruction (the ROB head), falling back to *frontend_cause*
        when the core is empty:

        1. head completed earlier but still here — only an external
           commit gate can hold a finished head, so ``intercore_wait``;
        2. head is a load executing beyond the L1 hit latency —
           ``load_miss``;
        3. head waits on an unsatisfied inter-core value —
           ``intercore_wait``;
        4. dispatch stalled this cycle on a full window structure —
           ``rob_full`` / ``iq_full`` / ``lsq_full``;
        5. otherwise — ``exec`` (FU latency, dependence chains, issue
           contention);
        empty core — *frontend_cause* (``fetch`` / ``redirect`` /
        ``window`` / ``drain``, supplied by the front end).

        The sum of all charges is ``cycles * commit_width`` by
        construction, which :class:`repro.stats.cpistack.CPIStack`
        verifies.
        """
        stats = self.stats
        slots = stats.commit_slots
        if committed:
            stats.cycles_active += 1
            slots["retire"] = slots.get("retire", 0) + committed
        elif self._rob or self._fetch_buffer:
            stats.cycles_active += 1
        empty = self.params.commit_width - committed
        if empty <= 0:
            return
        cause = self.stall_blame(cycle, frontend_cause)
        slots[cause] = slots.get(cause, 0) + empty

    def stall_blame(self, cycle: int, frontend_cause: str = "fetch") -> str:
        """The cause an empty commit slot is charged to at *cycle*.

        This is the blame taxonomy of :meth:`attribute_cycle` (which
        calls it); the idle-cycle skip-ahead fast path also uses it to
        charge a whole run of identical stalled cycles in one call.
        """
        head = self._rob[0] if self._rob else None
        if head is None:
            return frontend_cause
        state = head.state
        if state == COMPLETED:
            if head.complete_cycle >= cycle:
                return "exec"  # finished this cycle; retires next
            return "intercore_wait"  # held by the global commit gate
        if state == ISSUED:
            latency = head.complete_cycle - head.issue_cycle
            if (head.record.op_class == _LOAD and not head.forwarded
                    and latency > self.params.l1d.hit_latency):
                return "load_miss"
            return "exec"
        # DISPATCHED: waiting on operands or issue bandwidth.
        for tag in head.extra_deps:
            ready = tag.ready_cycle
            if ready is None or ready > cycle:
                return "intercore_wait"
        if self._dispatch_blocked is not None:
            return self._dispatch_blocked
        return "exec"

    # ------------------------------------------------------------------
    # Idle-cycle skip-ahead support
    # ------------------------------------------------------------------

    def next_event(self, cycle: int) -> int:
        """Earliest future cycle at which this core's state (or its
        cycle-accounting blame) can change, given that nothing happened
        at *cycle*.

        Conservative lower bound used by the machines' idle-cycle
        skip-ahead: every cycle strictly between *cycle* and the
        returned value is guaranteed to be an exact no-op replay of
        *cycle* (same empty phases, same blame, same per-cycle counter
        increments), so the clock can jump there after charging the
        skipped cycles in bulk via :meth:`charge_idle_cycles`.

        Returns :data:`NO_EVENT` when the core alone schedules nothing
        (the machine still bounds the jump by front-end events, the
        watchdog expiry and ``max_cycles``).
        """
        nxt = NO_EVENT
        heap = self._completion_heap
        if heap:
            nxt = heap[0][0]
        heap = self._ready_heap
        if heap and heap[0][0] < nxt:
            nxt = heap[0][0]
        rob = self._rob
        if rob:
            head = rob[0]
            state = head.state
            if state == COMPLETED:
                # Commit eligibility (phase_commit requires
                # ``complete_cycle < cycle``); a head already eligible
                # but held by an external gate schedules nothing here.
                eligible = head.complete_cycle + 1
                if eligible > cycle and eligible < nxt:
                    nxt = eligible
            elif state == DISPATCHED:
                # Blame flips (intercore_wait -> exec/...) when a known
                # external-value arrival time passes.
                for tag in head.extra_deps:
                    ready = tag.ready_cycle
                    if ready is not None and ready > cycle and ready < nxt:
                        nxt = ready
        return nxt

    def charge_idle_cycles(self, first: int, count: int,
                           frontend_cause: str = "fetch") -> None:
        """Charge *count* consecutive idle cycles starting at *first*.

        Equivalent to running :meth:`phase_dispatch` (blocked) and
        :meth:`attribute_cycle` (zero commits) once per skipped cycle:
        the blame and the dispatch-stall cause are constant across the
        run by :meth:`next_event`'s construction, so the per-cycle
        counters are bulk-incremented.
        """
        stats = self.stats
        if self._rob or self._fetch_buffer:
            stats.cycles_active += count
        slots = stats.commit_slots
        cause = self.stall_blame(first, frontend_cause)
        slots[cause] = (slots.get(cause, 0)
                        + self.params.commit_width * count)
        if self._fetch_buffer:
            blocked = self._dispatch_blocked
            if blocked == "rob_full":
                stats.rob_full_stalls += count
            elif blocked == "iq_full":
                stats.iq_full_stalls += count
            elif blocked == "lsq_full":
                stats.lsq_full_stalls += count

    def _steer(self, uop: Uop) -> int:
        """Cluster steering for fused (multi-cluster) operation.

        Dependence-affinity steering with a per-cluster rename-bandwidth
        cap: follow the youngest producer's cluster when one exists (and
        its rename stage still has a slot this cycle), otherwise
        round-robin over clusters with remaining capacity.
        """
        if self.num_clusters == 1:
            return 0
        used = self._cluster_dispatched
        cap = self.cluster_issue_width
        preferred = None
        for src in reversed(uop.record.srcs):
            producer = self._reg_map.get(src)
            if producer is not None and producer.state != COMMITTED:
                preferred = producer.cluster
                break
        if preferred is not None and used[preferred] < cap:
            used[preferred] += 1
            return preferred
        for _ in range(self.num_clusters):
            cluster = self._next_cluster
            self._next_cluster = (cluster + 1) % self.num_clusters
            if used[cluster] < cap:
                used[cluster] += 1
                return cluster
        # Every cluster full this cycle (dispatch width exceeds total
        # cluster capacity): spill round-robin.
        cluster = self._next_cluster
        self._next_cluster = (cluster + 1) % self.num_clusters
        used[cluster] += 1
        return cluster

    def _enqueue_ready(self, uop: Uop) -> None:
        ready = uop.operand_ready
        earliest = uop.dispatch_cycle + 1
        if ready < earliest:
            ready = earliest
        uop.ready_cycle = ready
        heapq.heappush(self._ready_heap, (ready, uop.seq, uop.uid, uop))

    def wake(self, uop: Uop) -> None:
        """Enqueue *uop* for issue after its last external dep resolved.

        Called by an orchestrator after a :class:`ValueTag` it manages was
        satisfied and returned this uop as fully woken.
        """
        if uop.state == DISPATCHED and uop.pending == 0:
            self._enqueue_ready(uop)

    def delay_uop(self, uop: Uop, until_cycle: int) -> None:
        """Push a dispatched-but-unissued uop's earliest issue to *until_cycle*.

        Used for cross-core store-to-load forwarding: a speculated load
        that has not issued yet when the conflicting store completes must
        wait for the forwarded data.  Older ready-heap entries become
        stale and are skipped at issue.
        """
        if uop.state != DISPATCHED:
            return
        if until_cycle > uop.operand_ready:
            uop.operand_ready = until_cycle
        if uop.pending == 0:
            self._enqueue_ready(uop)

    # ------------------------------------------------------------------
    # Squash (pipeline flush)
    # ------------------------------------------------------------------

    def squash_from(self, seq: int) -> int:
        """Kill every in-flight uop with ``record.seq >= seq``.

        Used by the Fg-STP orchestrator on memory-dependence violations.
        The fetch buffer, ROB, IQ and LSQ are purged; the register and
        store maps are rebuilt from the surviving (older) uops.  Heap
        entries for squashed uops are invalidated lazily.  A squashed
        uop that waited on inter-core values lets go of their tags: it
        is in each unsatisfied tag's consumer list, and the two would
        otherwise keep each other alive.

        Returns:
            Number of uops squashed.
        """
        count = 0
        for uop in self._fetch_buffer:
            if uop.seq >= seq:
                uop.state = SQUASHED
                count += 1
        self._fetch_buffer = deque(
            u for u in self._fetch_buffer if u.state != SQUASHED)

        survivors: deque = deque()
        for uop in self._rob:
            if uop.seq >= seq:
                if uop.state == DISPATCHED:
                    self._iq_count -= 1
                    uop.extra_deps = []
                if uop.is_memory:
                    self._lsq_count -= 1
                uop.state = SQUASHED
                count += 1
            else:
                survivors.append(uop)
        self._rob = survivors

        # Rebuild rename and store-forwarding maps from survivors.
        self._reg_map = {}
        self._store_map = {}
        for uop in survivors:
            record = uop.record
            if record.dst is not None:
                self._reg_map[record.dst] = uop
            if record.op_class == _STORE:
                self._store_map[record.mem_addr] = uop
        self.stats.squashed_uops += count
        return count

    def drain_check(self) -> None:
        """Sanity check for the end of a run.

        Raises:
            PipelineDrainError: when uops are still in flight (a
                deadlock or a commit-gate bug would surface here
                instead of hanging).  The error carries this core's
                snapshot; the owning machine attaches run-level partial
                statistics before re-raising.
        """
        if self.busy():
            head = self.rob_head
            raise PipelineDrainError(
                f"{self.name}: pipeline not drained; rob={len(self._rob)} "
                f"fetchbuf={len(self._fetch_buffer)} head={head!r}",
                machine=self.name,
                instructions=self.stats.committed,
                snapshot={"core": self.snapshot()})
