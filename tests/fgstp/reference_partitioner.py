"""Frozen reference copy of the Fg-STP partitioner.

This is the straightforward three-pass partitioner the optimised
:mod:`repro.fgstp.partitioner` replaced, kept byte-for-byte below this
docstring except for absolute imports.  ``test_partitioner_reference``
drives both with the same batches and requires identical decisions and
state after every call, so the optimised passes can never drift from
these semantics.  Do not edit it to follow a behaviour change: a
deliberate change to the partition decisions replaces this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.fgstp.params import DEFAULT_OP_WEIGHTS, FgStpParams
from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord

#: Marker for "value is architecturally visible everywhere" (produced by
#: an instruction that committed before the current window).
BOTH_CORES = frozenset((0, 1))


@dataclass
class WriterEntry:
    """Partition-time knowledge about a register/memory value's producer.

    Attributes:
        seq: Producing instruction's dynamic sequence number.
        cores: Cores the value is (or will become) natively available on
            — ``{c}`` for a normal assignment, ``{0, 1}`` for replicas.
        pc: Producer's static PC (for predictor training).
    """

    seq: int
    cores: frozenset
    pc: int


@dataclass
class Assignment:
    """Partitioning decision for one dynamic instruction.

    Attributes:
        seq: Dynamic sequence number.
        cores: Execution cores (one entry, or two when replicated).
        comm_srcs: Source register values that must be communicated,
            as ``(producer_seq, dest_core)`` pairs (deduplicated by the
            orchestrator's per-(producer, core) tag map).
        mem_dep: For loads with a cross-core in-flight producer store:
            ``(store_seq, store_pc)``; ``None`` otherwise.
        stolen: True when load balance overrode producer affinity (the
            instruction was "stolen" by the lighter core; surfaced as a
            trace event, never part of the result).
        replicated: Convenience flag (``len(cores) == 2``).
    """

    seq: int
    cores: Tuple[int, ...]
    comm_srcs: List[Tuple[int, int]] = field(default_factory=list)
    mem_dep: Optional[Tuple[int, int]] = None
    stolen: bool = False

    @property
    def replicated(self) -> bool:
        return len(self.cores) == 2


@dataclass
class PartitionStats:
    """Aggregate partitioner counters over a run."""

    assigned: int = 0
    on_core: List[int] = field(default_factory=lambda: [0, 0])
    replicated: int = 0
    comm_values: int = 0
    cross_mem_deps: int = 0

    def as_dict(self) -> dict:
        total = max(self.assigned, 1)
        return {
            "assigned": self.assigned,
            "on_core0": self.on_core[0],
            "on_core1": self.on_core[1],
            "replicated": self.replicated,
            "replication_rate": self.replicated / total,
            "comm_values": self.comm_values,
            "comm_per_100_instr": 100.0 * self.comm_values / total,
            "cross_mem_deps": self.cross_mem_deps,
        }


class Partitioner:
    """Stateful instruction partitioner (see module docstring).

    The partitioner carries state across batches: register/memory writer
    maps, running per-core load, and an undo journal keyed by sequence
    number so :meth:`rewind` can restore the exact pre-squash state.
    """

    def __init__(self, params: FgStpParams):
        self.params = params
        self.weights = dict(DEFAULT_OP_WEIGHTS)
        self.stats = PartitionStats()
        self._reg_writer: Dict[int, WriterEntry] = {}
        self._mem_writer: Dict[int, WriterEntry] = {}
        self._load = [0.0, 0.0]
        self._committed_seq = 0
        # Predictor-style steering state (PC-indexed; addresses are NOT
        # available at partition time — the partition unit sees decoded
        # instructions, not computed addresses).  Deliberately not
        # rolled back on squashes, like any predictor.
        #
        # _mem_pc_core: last core each static memory instruction went to
        # (locality stickiness: keeps a site's line in one L1D).
        self._mem_pc_core: Dict[int, int] = {}
        # _pair_map: load PC -> {store PC: confidence} — the store sites
        # this load has been observed depending on (store-set style).
        # Trained by the orchestrator from executed dependences and from
        # violations; steering follows the highest-confidence store.
        self._pair_map: Dict[int, Dict[int, int]] = {}
        # _store_pc_core: last core each static store went to.
        self._store_pc_core: Dict[int, int] = {}
        # Undo journal: (map_kind, seq, key, previous entry or None).
        self._journal: List[Tuple[str, int, int, Optional[WriterEntry]]] = []
        # Batch offsets where balance overrode affinity (trace events
        # only; cleared every partition() call).
        self._last_steals: Set[int] = set()

    # ------------------------------------------------------------------
    # Batch partitioning
    # ------------------------------------------------------------------

    def partition(self, batch: Sequence[TraceRecord],
                  committed_seq: int = 0) -> List[Assignment]:
        """Assign every instruction in *batch* and update global state.

        Args:
            batch: Records to partition, in dynamic order.
            committed_seq: The global commit frontier — values produced
                by instructions older than this are architecturally
                visible on both cores and never need communication.

        Returns one :class:`Assignment` per record, in order.
        """
        if not batch:
            return []
        self._committed_seq = committed_seq
        self._last_steals.clear()
        cores = self._assign_pass(batch)
        replicated = self._replication_pass(batch, cores)
        return self._emit_pass(batch, cores, replicated)

    # -- pass 1: core assignment --------------------------------------

    def _assign_pass(self, batch: Sequence[TraceRecord]) -> List[int]:
        """Slice-growth assignment.

        Tight dependence chains are the worst thing to cut — a cross-core
        edge inside a chain adds a full queue latency to the critical
        path — so an instruction whose most recent producer is *close*
        (within ``affinity_recent`` dynamic instructions) always follows
        that producer's core.  Instructions with only distant producers
        (slack edges: the queue latency hides under the existing gap) or
        no in-flight producers at all are the balancing points: they seed
        new slices on the less-loaded core.
        """
        params = self.params
        weights = self.weights
        recent = params.affinity_recent
        balance = params.balance_factor
        load = self._load
        cores: List[int] = []
        # Intra-batch overlay of writer knowledge (reg -> (core, seq)).
        local_writer: Dict[int, Tuple[int, int]] = {}

        committed = self._committed_seq

        def producer_of(src: int) -> Optional[Tuple[int, int]]:
            producer = local_writer.get(src)
            if producer is not None:
                return producer
            entry = self._reg_writer.get(src)
            if entry is not None and entry.seq >= committed \
                    and len(entry.cores) == 1:
                return (next(iter(entry.cores)), entry.seq)
            return None

        steals = self._last_steals
        for offset, record in enumerate(batch):
            seq = record.seq
            # Closest in-flight producer (register chain).
            closest: Optional[Tuple[int, int]] = None
            for src in record.srcs:
                producer = producer_of(src)
                if producer is not None and (
                        closest is None or producer[1] > closest[1]):
                    closest = producer
            # Learned memory pairing: a load previously caught depending
            # on some store PC follows that store's core (addresses are
            # unknown at partition time; this PC pair table is trained
            # by dependence violations).
            pair_core: Optional[int] = None
            if record.is_load:
                partners = self._pair_map.get(record.pc)
                if partners:
                    for store_pc, _confidence in sorted(
                            partners.items(), key=lambda kv: -kv[1]):
                        pair_core = self._store_pc_core.get(store_pc)
                        if pair_core is not None:
                            break

            imbalance = load[0] - load[1]  # positive: core 0 overloaded
            lighter = 0 if imbalance <= 0 else 1
            if pair_core is not None:
                core = pair_core
            elif closest is not None and seq - closest[1] <= recent:
                core = closest[0]
            else:
                sticky = (self._mem_pc_core.get(record.pc)
                          if record.is_memory else None)
                if sticky is not None:
                    # Keep each static memory site next to the L1D that
                    # holds its lines.
                    core = sticky
                elif closest is not None:
                    # Distant producer: slack edge — balance decides
                    # unless the system is already even.
                    threshold = balance * 40.0
                    if abs(imbalance) < threshold:
                        core = closest[0]
                    else:
                        core = lighter
                        if core != closest[0]:
                            steals.add(offset)
                else:
                    core = lighter

            cores.append(core)
            load[core] += weights[record.op_class]
            if record.dst is not None:
                local_writer[record.dst] = (core, seq)
            if record.is_memory:
                self._mem_pc_core[record.pc] = core
                if record.is_store:
                    self._store_pc_core[record.pc] = core
        # Decay the running load so ancient history does not swamp the
        # balance signal.
        load[0] *= 0.9
        load[1] *= 0.9
        return cores

    # -- pass 2: replication ------------------------------------------

    def _replication_pass(self, batch: Sequence[TraceRecord],
                          cores: List[int]) -> Set[int]:
        """Offsets (into *batch*) of instructions to replicate."""
        if not self.params.replication:
            return set()
        max_weight = self.params.replication_max_weight
        weights = self.weights

        # Consumer cores per batch offset (who reads my value, and where).
        consumer_cores: List[Set[int]] = [set() for _ in batch]
        producer_of: Dict[int, int] = {}   # reg -> batch offset
        for offset, record in enumerate(batch):
            for src in record.srcs:
                producer = producer_of.get(src)
                if producer is not None:
                    consumer_cores[producer].add(cores[offset])
            if record.dst is not None:
                producer_of[record.dst] = offset

        replicated: Set[int] = set()
        for offset, record in enumerate(batch):
            if record.dst is None or record.is_control or record.is_memory:
                continue
            if weights[record.op_class] > max_weight:
                continue
            if consumer_cores[offset] != {0, 1}:
                continue
            # Replication is profitable when at most one source value has
            # to be *seeded* across the fabric: the replica then saves the
            # (repeated) communication of this instruction's own value.
            # Sources available on both cores — committed state, values
            # produced by replicas — are free.
            seed_cost = 0
            for src in record.srcs:
                producer_offset = producer_of_upto(producer_of, batch,
                                                   offset, src)
                if not self._available_both(src, replicated,
                                            producer_offset):
                    seed_cost += 1
            if seed_cost <= 1:
                replicated.add(offset)
        return replicated

    def _available_both(self, src: int, replicated: Set[int],
                        producer_offset: Optional[int]) -> bool:
        if producer_offset is not None:
            return producer_offset in replicated
        entry = self._reg_writer.get(src)
        if entry is None or entry.seq < self._committed_seq:
            return True  # committed / live-in state: visible everywhere
        return entry.cores == BOTH_CORES

    # -- pass 3: emission ----------------------------------------------

    def _emit_pass(self, batch: Sequence[TraceRecord], cores: List[int],
                   replicated: Set[int]) -> List[Assignment]:
        assignments: List[Assignment] = []
        stats = self.stats
        for offset, record in enumerate(batch):
            seq = record.seq
            if offset in replicated:
                my_cores: Tuple[int, ...] = (0, 1)
            else:
                my_cores = (cores[offset],)
            assignment = Assignment(seq=seq, cores=my_cores,
                                    stolen=offset in self._last_steals)

            # Source communication needs (committed values are visible
            # everywhere and never cross the fabric).
            committed = self._committed_seq
            for src in set(record.srcs):
                entry = self._reg_writer.get(src)
                if entry is None or entry.seq < committed:
                    continue
                for core in my_cores:
                    if core not in entry.cores:
                        assignment.comm_srcs.append((entry.seq, core))
            # Cross-core memory dependence (loads only; same-core pairs
            # are handled by the core's own store forwarding).
            if record.is_load and len(my_cores) == 1:
                entry = self._mem_writer.get(record.mem_addr)
                if entry is not None and entry.seq >= committed \
                        and my_cores[0] not in entry.cores:
                    assignment.mem_dep = (entry.seq, entry.pc)
                    stats.cross_mem_deps += 1

            # Update writer maps (journaled for rewind).
            if record.dst is not None:
                self._journal.append(
                    ("reg", seq, record.dst,
                     self._reg_writer.get(record.dst)))
                self._reg_writer[record.dst] = WriterEntry(
                    seq=seq, cores=frozenset(my_cores), pc=record.pc)
            if record.is_store:
                self._journal.append(
                    ("mem", seq, record.mem_addr,
                     self._mem_writer.get(record.mem_addr)))
                self._mem_writer[record.mem_addr] = WriterEntry(
                    seq=seq, cores=frozenset(my_cores), pc=record.pc)

            stats.assigned += 1
            for core in my_cores:
                stats.on_core[core] += 1
            if len(my_cores) == 2:
                stats.replicated += 1
            stats.comm_values += len(assignment.comm_srcs)
            assignments.append(assignment)
        return assignments

    # ------------------------------------------------------------------
    # Squash support
    # ------------------------------------------------------------------

    def learn_pair(self, load_pc: int, store_pc: int,
                   weight: int = 1) -> None:
        """Train the memory-pair table with an observed dependence.

        Called by the orchestrator both when a cross-core dependence is
        detected at execution (weight 1) and on a violation squash
        (higher weight).  Future instances of the load are steered to
        the highest-confidence partner store's core, removing the
        cross-core dependence entirely where possible.
        """
        partners = self._pair_map.setdefault(load_pc, {})
        partners[store_pc] = min(partners.get(store_pc, 0) + weight, 64)
        if len(partners) > 4:
            # Keep the strongest partners only (store-set capacity).
            weakest = min(partners, key=partners.get)
            del partners[weakest]

    def rewind(self, seq: int) -> None:
        """Undo all writer-map updates made by instructions >= *seq*."""
        journal = self._journal
        while journal and journal[-1][1] >= seq:
            kind, _entry_seq, key, previous = journal.pop()
            target = self._reg_writer if kind == "reg" else self._mem_writer
            if previous is None:
                target.pop(key, None)
            else:
                target[key] = previous

    def retire(self, seq: int) -> None:
        """Forget journal entries for instructions older than *seq*.

        Also drops writer-map entries whose producers have committed —
        committed values are architecturally visible on both cores (the
        merged commit stage broadcasts state), so they no longer need
        communication.
        """
        journal = self._journal
        keep_from = 0
        for index, (_kind, entry_seq, _key, _previous) in enumerate(journal):
            if entry_seq >= seq:
                keep_from = index
                break
        else:
            keep_from = len(journal)
        del journal[:keep_from]
        for target in (self._reg_writer, self._mem_writer):
            stale = [key for key, entry in target.items() if entry.seq < seq]
            for key in stale:
                del target[key]


def producer_of_upto(producer_of: Dict[int, int], batch, offset: int,
                     src: int) -> Optional[int]:
    """Batch offset of the most recent producer of *src* before *offset*.

    ``producer_of`` maps each register to its *latest* producer in the
    whole batch; this helper filters out producers at or after *offset*
    by rescanning backwards only when needed.
    """
    candidate = producer_of.get(src)
    if candidate is None or candidate < offset:
        return candidate
    for earlier in range(offset - 1, -1, -1):
        if batch[earlier].dst == src:
            return earlier
    return None
