"""The Fg-STP machine: two cores collaborating on one thread.

This module glues every Fg-STP mechanism together:

* a **global front end** (one branch predictor + core 0's L1I, fetching
  at the two cores' combined width) fills the partition unit's batch
  buffer, bounded by the lookahead *window*;
* the **partition unit** (:class:`repro.fgstp.partitioner.Partitioner`)
  assigns each fetched instruction to core 0 / core 1, replicating cheap
  instructions needed on both;
* **value queues** (:class:`repro.fgstp.comm.InterCoreQueue`) carry
  cross-core register values, with latency and bandwidth;
* **memory-dependence speculation** lets loads issue before cross-core
  stores they (probably) do not depend on; violations squash both cores
  from the offending load and train the predictor
  (:class:`repro.fgstp.specdep.DependencePredictor`);
* **global in-order commit** retires the single thread's instructions
  in sequence-number order across both cores: the oldest uncommitted
  seq retires from whichever core holds it (replicated pairs retire as
  one architectural instruction).

Modelling notes (documented simplifications, consistent with the
paper-family methodology):

* Committed values are architecturally visible on both cores (the merged
  commit stage broadcasts state); only in-flight values use the queues.
* A speculated load whose conflicting store completes *before* the load
  issues pays the queue latency as a forwarding delay instead of
  squashing.
* Cross-core WAR/WAW memory orderings never stall: stores write the
  cache at commit, which the global gate already serialises.
* Instruction fetch is charged to core 0's L1I (the cores collaborate on
  fetch; modelling both L1Is adds capacity the fused baseline also gets
  via its doubled L1I, so the comparison stays fair).
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from ..ckpt.state import MachineCheckpoint
from ..isa.opcodes import OpClass
from ..isa.program import INSTRUCTION_BYTES
from ..stats.result import SimResult
from ..trace.record import TraceRecord
from ..uarch.branch.btb import FrontEndPredictor
from ..uarch.cache.hierarchy import CacheHierarchy, make_shared_l2
from ..uarch.params import CoreParams
from ..uarch.pipeline.core import CycleCore
from ..uarch.pipeline.machine import MachineShell, relink
from ..uarch.pipeline.uop import (
    COMMITTED,
    COMPLETED,
    DISPATCHED,
    FETCHED,
    ISSUED,
    SQUASHED,
    Uop,
    ValueTag,
)
from ..uarch.warmup import warm_state
from .comm import InterCoreQueue
from .params import FgStpParams
from .partitioner import Partitioner
from .policies import POLICIES
from .specdep import DependencePredictor

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP


class FgStpMachine(MachineShell):
    """Two *base* cores reconfigured for Fg-STP execution.

    Args:
        base: Configuration of each constituent core (identical to the
            single-core baseline and to each half of Core Fusion).
        fgstp: Mechanism parameters (window, queues, speculation,
            partition policy, ...).
        **options: Run-loop options, documented on
            :class:`~repro.uarch.pipeline.machine.MachineShell`.  Here
            ``commit_hook`` fires once per *architectural* retirement,
            in global sequence order — for a replicated instruction
            when its last replica retires.  An attached
            ``tracer`` records every retired uop (replicas included,
            each tagged with its core), squash/steal/watchdog instants,
            and — via the value queues — inter-core send/recv events.
    """

    #: Per-run state a checkpoint captures: the stateful components and
    #: the dynamic scalars/containers of the front end and global
    #: commit.  A replicated seq's copies that retired already are the
    #: ones in ``_live`` in the COMMITTED state.
    _STATE = (
        "hierarchies", "cores", "predictor", "partitioner",
        "dep_predictor", "queues",
        "_fetch_cursor", "_next_uid", "_batch", "_feed", "_live",
        "_comm_tags", "_send_map", "_watch", "_last_store",
        "_stall_seq", "_fetch_resume_at", "_icache_line", "_icache_ready",
        "_pending_violations", "_violation_store_pc", "_now",
        "squashes", "squashed_uops",
        "mispredict_stall_cycles", "window_stall_cycles",
    )
    _PARTIAL_FIELDS = ("cores", "squashes")
    _BUSY_HANG = "intercore"

    def __init__(self, base: CoreParams,
                 fgstp: Optional[FgStpParams] = None,
                 **options):
        super().__init__("fgstp", base.name, **options)
        self.base = base
        self.fgstp = fgstp or FgStpParams()

        shared_l2 = make_shared_l2(base)
        self.hierarchies = (CacheHierarchy(base, shared_l2),
                            CacheHierarchy(base, shared_l2))
        self.cores = (
            CycleCore(base, self.hierarchies[0], name="fgstp-core0"),
            CycleCore(base, self.hierarchies[1], name="fgstp-core1"),
        )
        self.predictor = FrontEndPredictor(base.branch)
        self.partitioner = Partitioner(self.fgstp)
        self.dep_predictor = DependencePredictor()
        self.queues = (
            InterCoreQueue(self.fgstp.queue_latency,
                           self.fgstp.queue_bandwidth, name="q0to1"),
            InterCoreQueue(self.fgstp.queue_latency,
                           self.fgstp.queue_bandwidth, name="q1to0"),
        )
        self._wire()

        # Dynamic state (reset per run).
        self._trace: Sequence[TraceRecord] = ()
        self._fetch_cursor = 0
        self._next_uid = 0
        self._batch: List[TraceRecord] = []
        self._feed: Tuple[deque, deque] = (deque(), deque())
        # seq -> its uops, ``[uop]`` or ``[core-0 copy, core-1 copy]``.
        self._live: Dict[int, List[Uop]] = {}
        self._comm_tags: Dict[Tuple[int, int], ValueTag] = {}
        self._send_map: Dict[int, List[ValueTag]] = {}
        self._watch: Dict[int, List[Uop]] = {}
        self._last_store: List[Optional[Uop]] = [None, None]
        self._stall_seq: Optional[int] = None
        self._fetch_resume_at = 0
        self._icache_line = -1
        self._icache_ready = 0
        self._pending_violations: List[Uop] = []
        self._violation_store_pc: Dict[int, int] = {}
        self._now = 0
        # Counters.
        self.squashes = 0
        self.squashed_uops = 0
        self.mispredict_stall_cycles = 0
        self.window_stall_cycles = 0

    # ------------------------------------------------------------------
    # Run loop hooks
    # ------------------------------------------------------------------

    def run(self, trace: Sequence[TraceRecord], workload: str = "trace",
            warmup: int = 0,
            resume_from: Optional[MachineCheckpoint] = None) -> SimResult:
        """Simulate *trace* on the Fg-STP pair.

        Arguments, checkpoint resume and the structured failures are
        those of :meth:`repro.uarch.pipeline.machine.SingleCoreMachine.run`.
        """
        return self._simulate(trace, workload, warmup, resume_from)

    def _warm(self, prefix: Sequence[TraceRecord]) -> None:
        warm_state(prefix, self.hierarchies[0], self.predictor,
                   line_bytes=self.base.l1i.line_bytes)
        warm_state(prefix, self.hierarchies[1], None,
                   line_bytes=self.base.l1i.line_bytes)

    def _start(self, trace: Sequence[TraceRecord]) -> None:
        self._trace = trace
        self.partitioner.track(trace)

    def _step(self, now: int) -> int:
        """Simulate one cycle; truthy when anything made progress.

        A falsy return means the whole machine replayed an idle cycle
        (no delivery, commit, completion, issue, dispatch, feed push or
        front-end activity) — the precondition for the skip-ahead fast
        path.
        """
        self._now = now
        cores = self.cores
        core0, core1 = cores
        # 1. Queue deliveries wake consumers on the destination core.
        #    A queue is asked only when an entry is due.  Progress is
        #    detected via the delivery counters: an entry can be
        #    delivered without waking anyone (no consumers yet), and
        #    that still changes queue state.
        delivered = 0
        for queue in self.queues:
            fifo = queue._fifo
            if fifo and fifo[0][0] <= now:
                before = queue.deliveries
                for uop in queue.deliver(now):
                    cores[uop.core_id].wake(uop)
                delivered += queue.deliveries - before
        # 2. Global in-order commit.
        retired0, retired1 = self._retire(now)
        # 3. Execution completion (fires sends and violation watches),
        #    on a core that has a completion due.
        on_complete = self._on_complete
        completed = 0
        heap = core0._completion_heap
        if heap and heap[0][0] <= now:
            completed = len(core0.phase_complete(now, on_complete))
        heap = core1._completion_heap
        if heap and heap[0][0] <= now:
            completed += len(core1.phase_complete(now, on_complete))
        if self._pending_violations:
            self._process_violations(now)
        # 4. Issue, on a core with a uop ready by now.
        issued = 0
        heap = core0._ready_heap
        if heap and heap[0][0] <= now:
            issued = core0.phase_issue(now)
        heap = core1._ready_heap
        if heap and heap[0][0] <= now:
            issued += core1.phase_issue(now)
        # 5. Dispatch, on a core with uops to dispatch or a dispatch
        #    stall to clear.
        dispatched = 0
        if core0._fetch_buffer or core0._dispatch_blocked is not None:
            dispatched = core0.phase_dispatch(now)
        if core1._fetch_buffer or core1._dispatch_blocked is not None:
            dispatched += core1.phase_dispatch(now)
        # 6. Feed partitioned uops into the cores' fetch buffers.
        fed = self._feed_cores(now)
        # 7. Global fetch + partition.
        fetched = self._global_fetch(now)
        # 8. Cycle accounting: every commit slot of both cores is
        #    charged to exactly one cause this cycle.  The front end's
        #    cause is read only for a core with an empty ROB.
        cause = (self._frontend_cause(now)
                 if not core0._rob or not core1._rob else "fetch")
        core0.attribute_cycle(now, retired0, cause)
        core1.attribute_cycle(now, retired1, cause)
        return (delivered or retired0 or retired1 or completed or issued
                or dispatched or fed or fetched)

    def _frontend_cause(self, now: int) -> str:
        """The global front end's stall cause at *now* (CPI accounting).

        Mirrors :meth:`_global_fetch`'s gating order: redirect
        (unresolved mispredict or squash-recovery penalty) dominates,
        then I-cache fill, then the lookahead window limit; trace
        exhaustion is ``drain``; anything else — e.g. partition/feed
        latency while a core starves — is plain ``fetch``.
        """
        if self._stall_seq is not None:
            return "redirect"
        if self._fetch_cursor >= len(self._trace):
            return "drain"
        if now < self._fetch_resume_at:
            return "redirect"
        if now < self._icache_ready:
            return "fetch"
        if self._fetch_cursor - self.committed >= self.fgstp.window_size:
            return "window"
        return "fetch"

    # ------------------------------------------------------------------
    # Idle-cycle skip-ahead
    # ------------------------------------------------------------------

    def _next_event(self, now: int) -> int:
        """Earliest cycle after *now* at which anything can change.

        Computed only after a zero-progress cycle, so every pending
        wake-up is on a scheduled timetable: core completion / ready
        heaps and blame-flip boundaries (:meth:`CycleCore.next_event`),
        queue-head eligibility, feed-head partition latency, and the
        redirect resume and I-cache fill cycles (both also
        ``_frontend_cause`` boundaries).  Chains that bottom out in none
        of these (a genuine deadlock) are bounded by the watchdog, which
        then fires at exactly the same cycle as under the naive loop.
        """
        nxt = self.cores[0].next_event(now)
        bound = self.cores[1].next_event(now)
        if bound < nxt:
            nxt = bound
        for queue in self.queues:
            fifo = queue._fifo
            if fifo and fifo[0][0] < nxt:
                nxt = fifo[0][0]
        for feed in self._feed:
            if feed:
                available_at = feed[0][0]
                if now < available_at < nxt:
                    nxt = available_at
        resume = self._fetch_resume_at
        if now < resume < nxt:
            nxt = resume
        fill = self._icache_ready
        if now < fill < nxt:
            nxt = fill
        return nxt

    def _charge_idle(self, first: int, count: int) -> None:
        """Replay *count* skipped cycles' stall accounting.

        Both cores' ledgers take the front end's cause; the front-end
        stall counters mirror :meth:`_global_fetch`'s gating order
        exactly.  The branch taken is constant across the skipped range
        because every flip boundary is a :meth:`_next_event` bound.
        """
        cause = self._frontend_cause(first)
        for core in self.cores:
            core.charge_idle_cycles(first, count, frontend_cause=cause)
        if self._fetch_cursor >= len(self._trace):
            return
        if self._stall_seq is not None:
            self.mispredict_stall_cycles += count
            return
        if first < self._fetch_resume_at or first < self._icache_ready:
            return
        if self._fetch_cursor - self.committed >= self.fgstp.window_size:
            self.window_stall_cycles += count

    def _lookahead(self) -> int:
        # The global fetch cursor never passes committed + window_size,
        # and a cycle commits up to 2 x commit_width before it fetches.
        return (self.fgstp.window_size + 2 * self.base.commit_width
                + 2 * self.base.fetch_width)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _retire(self, now: int) -> Tuple[int, int]:
        """Retire in global sequence order at *now*; returns the uops
        core 0 and core 1 retired.

        The oldest uncommitted seq retires from the core that holds it
        (it heads that core's ROB) once it completed before *now*, as
        long as that core has commit slots left: ``commit_width`` each
        per cycle.  The run of such seqs that one core holds alone
        retires in one call of that core's ``phase_commit``.  A
        replicated seq commits when both copies have retired: the core
        that retired the previous uop this cycle (core 0 at the start
        of a cycle) retires its copy first, which is the order of
        passes that let core 0 and then core 1 retire until neither
        can.
        """
        live = self._live
        seq = self.committed
        uops = live.get(seq)
        if uops is None:
            return 0, 0
        head = uops[0]
        if len(uops) == 1 and (head.state != COMPLETED
                               or head.complete_cycle >= now):
            return 0, 0
        width = self.base.commit_width
        left0 = left1 = width
        cores = self.cores
        tracer = self.tracer
        hook = self.commit_hook
        recent = self.recent_commits
        comm_tags = self._comm_tags
        current = 0
        while uops is not None:
            if len(uops) == 2:
                core_id = current
                uop = uops[core_id]
                if uop.state != COMPLETED or uop.complete_cycle >= now \
                        or not (left1 if core_id else left0):
                    core_id = 1 - core_id
                    uop = uops[core_id]
                    if uop.state != COMPLETED \
                            or uop.complete_cycle >= now \
                            or not (left1 if core_id else left0):
                        break
                retired = cores[core_id].phase_commit(now, 1)
                if not retired:
                    break
                if core_id:
                    left1 -= 1
                else:
                    left0 -= 1
                current = core_id
                if tracer is not None:
                    tracer.commit(uop, now)
                recent.append(uop)
                if uops[1 - core_id].state != COMMITTED:
                    continue
            else:
                uop = uops[0]
                if uop.state != COMPLETED or uop.complete_cycle >= now:
                    break
                core_id = uop.core_id
                budget = left1 if core_id else left0
                if not budget:
                    break
                run = 1
                while run < budget:
                    after = live.get(seq + run)
                    if after is None or len(after) == 2:
                        break
                    head = after[0]
                    if head.core_id != core_id \
                            or head.state != COMPLETED \
                            or head.complete_cycle >= now:
                        break
                    run += 1
                retired = cores[core_id].phase_commit(now, run)
                if not retired:
                    break
                if core_id:
                    left1 -= len(retired)
                else:
                    left0 -= len(retired)
                current = core_id
                if tracer is not None:
                    # Every retired uop (replicas included), so the
                    # event stream reconciles with the per-core
                    # retire-slot ledger.
                    tracer.commits(retired, now)
                recent.extend(retired)
            for uop in retired:
                del live[seq]
                # The partition unit sends no value from below the
                # commit frontier, so no later consumer looks these
                # tags up.
                if comm_tags:
                    comm_tags.pop((seq, 0), None)
                    comm_tags.pop((seq, 1), None)
                seq += 1
                if hook is not None:
                    self.committed = seq
                    hook(uop, now)
            uops = live.get(seq)
        self.committed = seq
        return width - left0, width - left1

    # ------------------------------------------------------------------
    # Completion callbacks: communication sends, violations, stalls
    # ------------------------------------------------------------------

    def _on_complete(self, uop: Uop, cycle: int) -> None:
        if self._stall_seq is not None and uop.seq == self._stall_seq:
            self._stall_seq = None
            self._fetch_resume_at = max(
                self._fetch_resume_at,
                cycle + self.base.mispredict_penalty)
        tags = self._send_map.pop(uop.uid, None)
        if tags:
            queue = self.queues[uop.core_id]
            for tag in tags:
                if tag.ready_cycle is None:
                    queue.send(tag, cycle)
        if uop.record.op_class == _STORE:
            watchers = self._watch.pop(uop.uid, None)
            if watchers:
                self._check_watchers(uop, watchers, cycle)

    def _check_watchers(self, store: Uop, watchers: List[Uop],
                        cycle: int) -> None:
        forward_at = cycle + self.fgstp.queue_latency
        for load in watchers:
            state = load.state
            if state == SQUASHED:
                continue
            if state in (ISSUED, COMPLETED):
                # The load consumed stale data: dependence violation.
                self._pending_violations.append(load)
                self._violation_store_pc[load.uid] = store.record.pc
            elif state == DISPATCHED:
                # Not issued yet: charge cross-core forwarding delay.
                self.cores[load.core_id].delay_uop(load, forward_at)
            elif state == FETCHED:
                tag = ValueTag(label=f"fwd@{store.seq}")
                tag.ready_cycle = forward_at
                load.extra_deps.append(tag)
            elif state == COMMITTED:  # pragma: no cover - seq order forbids it
                raise RuntimeError(
                    f"load {load!r} committed before its producer store "
                    f"{store!r} completed")

    # ------------------------------------------------------------------
    # Violation handling (squash + recovery)
    # ------------------------------------------------------------------

    def _process_violations(self, now: int) -> None:
        if not self._pending_violations:
            return
        victim = min(self._pending_violations, key=lambda u: u.seq)
        self._pending_violations.clear()
        # Only the victim's store is ever read: every other flagged load
        # is younger and squashed with it.
        store_pc = self._violation_store_pc.get(victim.uid)
        self._violation_store_pc.clear()
        if victim.state in (SQUASHED, COMMITTED):
            return
        squash_seq = victim.seq
        self.dep_predictor.train_violation(victim.record.pc)
        if store_pc is not None:
            # Teach the partitioner to co-locate this pair in future
            # (violations train with extra weight).
            self.partitioner.learn_pair(victim.record.pc, store_pc,
                                        weight=4)
        self.squashes += 1
        squashed = 0
        for core in self.cores:
            squashed += core.squash_from(squash_seq)
        self.squashed_uops += squashed
        if self.tracer is not None:
            self.tracer.instant(
                "squash", now, seq=squash_seq, core=victim.core_id,
                detail=f"{squashed} uops from seq {squash_seq} "
                       f"(memory-dependence violation)")
        for feed in self._feed:
            while feed and feed[-1][1].seq >= squash_seq:
                feed.pop()
        # The batch holds the records just below the fetch cursor.
        batch = self._batch
        del batch[max(0, squash_seq - self._fetch_cursor + len(batch)):]
        self._fetch_cursor = squash_seq
        # Squashed uops never complete, so drop what they would have
        # sent or checked on completion, and their own value tags.
        live = self._live
        send_map = self._send_map
        watch = self._watch
        comm_tags = self._comm_tags
        for seq in [s for s in live if s >= squash_seq]:
            for uop in live.pop(seq):
                send_map.pop(uop.uid, None)
                watch.pop(uop.uid, None)
            comm_tags.pop((seq, 0), None)
            comm_tags.pop((seq, 1), None)
        if self._stall_seq is not None and self._stall_seq >= squash_seq:
            self._stall_seq = None
        self._fetch_resume_at = max(self._fetch_resume_at,
                                    now + self.fgstp.recovery_penalty)
        self._icache_line = -1
        for queue in self.queues:
            queue.drop_squashed()

    # ------------------------------------------------------------------
    # Feeding partitioned uops into the cores
    # ------------------------------------------------------------------

    def _feed_cores(self, now: int) -> int:
        """Move each core's partitioned uops whose partition latency has
        passed into its fetch buffer, up to ``fetch_width`` a cycle.  A
        fed uop is in the FETCHED state it was built in: a squash drops
        the feed's squashed entries."""
        pushed = 0
        width = self.base.fetch_width
        for core, feed in zip(self.cores, self._feed):
            if not feed or feed[0][0] > now:
                continue
            # Each push takes one fetch-buffer slot, so the buffer's
            # free space sizes the pushes once and no push overflows it.
            buffer = core._fetch_buffer
            budget = core._fetch_capacity - len(buffer)
            if budget > width:
                budget = width
            left = budget
            while left > 0:
                available_at, uop = feed[0]
                if available_at > now:
                    break
                feed.popleft()
                uop.fetch_cycle = now
                buffer.append(uop)
                left -= 1
                if not feed:
                    break
            pushed += budget - left
        return pushed

    # ------------------------------------------------------------------
    # Global fetch + partitioning
    # ------------------------------------------------------------------

    def _global_fetch(self, now: int) -> bool:
        """Fetch/partition at *now*; True when the front end did work.

        A False return is a pure stall replay (mispredict redirect,
        redirect/I-cache wait, or a full lookahead window) whose only
        side effect is the matching stall counter — exactly what
        :meth:`_charge_idle` bulk-replays for skipped cycles.
        """
        trace = self._trace
        cursor = self._fetch_cursor
        if cursor >= len(trace):
            if self._batch:
                self._partition_batch(now)
                return True
            return False
        if self._stall_seq is not None:
            self.mispredict_stall_cycles += 1
            return False
        if now < self._fetch_resume_at or now < self._icache_ready:
            return False
        if cursor - self.committed >= self.fgstp.window_size:
            self.window_stall_cycles += 1
            return False

        # Nothing in the fetch loop commits, so the lookahead window
        # bounds the whole call.
        end = min(len(trace), self.committed + self.fgstp.window_size,
                  cursor + 2 * self.base.fetch_width)
        taken_budget = 2
        line_bytes = self.base.l1i.line_bytes
        hit_latency = self.base.l1i.hit_latency
        icache_line = self._icache_line
        batch = self._batch
        while cursor < end:
            record = trace[cursor]
            address = record.pc * INSTRUCTION_BYTES
            line = address // line_bytes
            if line != icache_line:
                latency = self.hierarchies[0].fetch(address)
                icache_line = line
                if latency > hit_latency:
                    self._icache_ready = now + latency
                    break
            batch.append(record)
            cursor += 1
            op_class = record.op_class
            if op_class == _BRANCH or op_class == _JUMP:
                correct = self.predictor.predict(record)
                self.predictor.update(record)
                if not correct:
                    self._stall_seq = cursor - 1
                    break
                if record.taken:
                    icache_line = -1
                    taken_budget -= 1
                    if taken_budget == 0:
                        break
        self._icache_line = icache_line
        self._fetch_cursor = cursor

        # The partition unit processes whatever its buffer holds each
        # cycle — ``batch_size`` is a maximum, not a minimum — so when
        # both feed queues are empty (the cores have nothing left to
        # dispatch, e.g. right after a misprediction redirect) a partial
        # batch flows at once instead of waiting to fill.
        feed0, feed1 = self._feed
        if (len(batch) >= self.fgstp.batch_size
                or self._stall_seq is not None
                or cursor >= len(trace)
                or (not feed0 and not feed1)):
            self._partition_batch(now)
        # The fetch loop body ran at least once (the pure-stall paths
        # all returned above): either instructions entered the batch or
        # an I-cache miss was initiated — both are front-end activity.
        return True

    def _partition_batch(self, now: int) -> None:
        """Partition the batch, then build and wire its uops in one pass
        in record order: a queue delivers at most ``queue_bandwidth``
        entries a cycle, so the order of one cycle's sends is timing."""
        batch = self._batch
        if not batch:
            return
        self._batch = []
        # The batch is always the records just below the fetch cursor.
        first = self._fetch_cursor - len(batch)
        partitioner = self.partitioner
        masks, wiring = partitioner.partition(
            batch, first, committed_seq=self.committed)
        available_at = now + self.fgstp.partition_latency
        tracer = self.tracer
        steals = partitioner.steals
        live = self._live
        feed0, feed1 = self._feed
        uid = self._next_uid
        for offset, (record, mask, wire) in enumerate(
                zip(batch, masks, wiring)):
            seq = first + offset
            if mask == 3:
                uops = [Uop(record, seq, uid, True, 0),
                        Uop(record, seq, uid + 1, True, 1)]
                uid += 2
                feed0.append((available_at, uops[0]))
                feed1.append((available_at, uops[1]))
            else:
                uop = Uop(record, seq, uid, False, mask >> 1)
                uops = [uop]
                uid += 1
                (feed1 if mask == 2 else feed0).append((available_at, uop))
            live[seq] = uops
            if tracer is not None and offset in steals:
                core = 1 if mask == 2 else 0
                tracer.instant(
                    "steal", now, seq=seq, core=core,
                    detail=f"balance override -> core {core}")
            if wire is not None:
                self._wire_dependences(record, wire, uops, now)
        self._next_uid = uid

    def _wire_dependences(self, record: TraceRecord, wire,
                          uops: List[Uop], now: int) -> None:
        comm, mem_dep = wire
        # Register values crossing the fabric, in ``comm`` order: it
        # fixes tag creation and queue send order.
        if comm is not None:
            for producer_seq, dest_core in comm:
                tag = self._get_comm_tag(producer_seq, dest_core, now)
                if tag is not None:
                    # A pair is indexed by core; a solo uop is on
                    # dest_core already.
                    uops[dest_core if len(uops) == 2 else 0] \
                        .extra_deps.append(tag)
        op_class = record.op_class
        if op_class == _STORE:
            self._last_store[uops[0].core_id] = uops[0]
            return
        if op_class != _LOAD:
            return
        if not self.fgstp.speculation:
            # Without dependence speculation a load cannot issue until the
            # other core's most recent older store has executed — the
            # hardware has no way to know their addresses differ.  This
            # conservative ordering is exactly what speculation removes.
            self._wire_conservative_load(uops[0], now)
        elif mem_dep is not None:
            # Cross-core memory dependence of a load.
            self._wire_mem_dep(record, mem_dep, uops[0], now)

    def _get_comm_tag(self, producer_seq: int, dest_core: int,
                      now: int) -> Optional[ValueTag]:
        key = (producer_seq, dest_core)
        tag = self._comm_tags.get(key)
        if tag is not None:
            return tag
        producers = self._live.get(producer_seq)
        if not producers:
            return None  # producer already committed: globally visible
        producer = producers[0]
        if producer.state == COMMITTED:
            return None
        tag = ValueTag(label=f"r@{producer_seq}->c{dest_core}")
        self._comm_tags[key] = tag
        if producer.state in (ISSUED, COMPLETED) \
                and producer.complete_cycle is not None \
                and producer.complete_cycle <= now:
            # Value already produced: send it now.
            self.queues[producer.core_id].send(tag, now)
        else:
            self._send_map.setdefault(producer.uid, []).append(tag)
        return tag

    def _wire_conservative_load(self, load_uop: Uop, now: int) -> None:
        store = self._last_store[1 - load_uop.core_id]
        if store is None or store.state in (COMMITTED, SQUASHED):
            return
        if store.complete_cycle is not None and store.complete_cycle <= now:
            return
        tag = ValueTag(label=f"cons@{store.seq}")
        self._send_map.setdefault(store.uid, []).append(tag)
        load_uop.extra_deps.append(tag)

    def _wire_mem_dep(self, record: TraceRecord,
                      mem_dep: Tuple[int, int], load_uop: Uop,
                      now: int) -> None:
        store_seq, store_pc = mem_dep
        # The hardware observes this dependence when the pair executes;
        # training the partitioner's pair table here models that
        # commit-time learning (it only affects *future* instances).
        self.partitioner.learn_pair(record.pc, store_pc)
        stores = self._live.get(store_seq)
        if not stores:
            return  # store committed: data is in the cache hierarchy
        store = stores[0]
        if store.state == COMMITTED:
            return
        if self.fgstp.speculation \
                and not self.dep_predictor.predicts_sync(record.pc):
            # A store that has completed already fired its check.
            if store.state != COMPLETED:
                self._watch.setdefault(store.uid, []).append(load_uop)
            return
        # Synchronise: the load waits for the store's data to cross.
        if store.complete_cycle is not None \
                and store.complete_cycle <= now:
            self.dep_predictor.train_unnecessary_sync(record.pc)
            tag = ValueTag(label=f"m@{store_seq}")
            self.queues[store.core_id].send(tag, now)
        else:
            tag = ValueTag(label=f"m@{store_seq}")
            self._send_map.setdefault(store.uid, []).append(tag)
        load_uop.extra_deps.append(tag)

    # ------------------------------------------------------------------
    # Checkpoint, results and forensics
    # ------------------------------------------------------------------

    def checkpoint_params_key(self) -> str:
        """Configuration identity for checkpoint compatibility checks."""
        return f"{self.base.key()}|{self.fgstp!r}|{self.fgstp.policy}"

    def _wire(self) -> None:
        """Install the hook a checkpoint leaves out, the queues' tracer.
        The cores' completion and commit callbacks are passed on every
        call instead, so no core refers back to this machine."""
        if self.tracer is not None:
            for src_core, queue in enumerate(self.queues):
                queue.tracer = self.tracer
                queue.trace_core = src_core

    def _transient(self):
        # Queue tracer attachments are observers; the partitioner's
        # policy comes from the parameters and its dependence index is
        # rebuilt from the trace.
        return ([(queue, name) for queue in self.queues
                 for name in ("tracer", "trace_core")]
                + [(self.partitioner, name)
                   for name in ("policy", "_deps")])

    def _adopt(self, trace: Sequence[TraceRecord]) -> None:
        self._trace = trace
        self.partitioner.policy = POLICIES[self.fgstp.policy]
        # Every uop not yet fully committed is live, and the batch holds
        # the records just below the fetch cursor.
        relink(chain.from_iterable(self._live.values()), trace)
        cursor = self._fetch_cursor
        self._batch = list(trace[cursor - len(self._batch):cursor])
        self.partitioner.index_trace(trace)
        self._wire()

    def _extra(self) -> dict:
        return {
            "partition": self.partitioner.stats.as_dict(),
            "dep_predictor": self.dep_predictor.stats(),
            "queues": {q.name: q.stats() for q in self.queues},
            "squashes": self.squashes,
            "squashed_uops": self.squashed_uops,
            "branch": self.predictor.stats(),
            "caches": {
                "core0": self.hierarchies[0].stats(),
                "core1": self.hierarchies[1].stats(),
            },
            "cores": [core.stats.as_dict() for core in self.cores],
            "stalls": {
                "mispredict_cycles": self.mispredict_stall_cycles,
                "window_cycles": self.window_stall_cycles,
            },
            "fgstp_params": {
                "window_size": self.fgstp.window_size,
                "batch_size": self.fgstp.batch_size,
                "queue_latency": self.fgstp.queue_latency,
                "queue_bandwidth": self.fgstp.queue_bandwidth,
                "speculation": self.fgstp.speculation,
                "replication": self.fgstp.replication,
            },
        }

    def _snapshot(self) -> dict:
        """Both cores, both value queues, partitioner/front-end state."""
        return {
            "cores": [core.snapshot() for core in self.cores],
            "queues": [queue.snapshot() for queue in self.queues],
            "frontend": {
                "fetch_cursor": self._fetch_cursor,
                "global_next": self.committed,
                "trace_length": len(self._trace),
                "window_size": self.fgstp.window_size,
                "batch_pending": len(self._batch),
                "feed_pending": [len(feed) for feed in self._feed],
                "stall_seq": self._stall_seq,
                "fetch_resume_at": self._fetch_resume_at,
                "icache_ready": self._icache_ready,
            },
            "partitioner": self.partitioner.stats.as_dict(),
            "dep_predictor": self.dep_predictor.stats(),
            "live_seqs": len(self._live),
            "pending_sends": len(self._send_map),
        }


def simulate_fgstp(trace: Sequence[TraceRecord], base: CoreParams,
                   fgstp: Optional[FgStpParams] = None,
                   workload: str = "trace", warmup: int = 0) -> SimResult:
    """Convenience wrapper: build a fresh Fg-STP machine and run *trace*."""
    return FgStpMachine(base, fgstp).run(trace, workload=workload,
                                         warmup=warmup)
