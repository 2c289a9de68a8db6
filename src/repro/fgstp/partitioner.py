"""The Fg-STP instruction partitioner.

The partition unit examines one *batch* of fetched instructions at a time
(a sliding slice of the large lookahead window) and decides, per dynamic
instruction, which of the two cores executes it.  Three mechanisms from
the paper are implemented here:

1. **Affinity / balance assignment** — each instruction is pulled toward
   the core(s) producing its source operands (cutting a tight dependence
   chain costs a queue round-trip) and pushed toward the less-loaded core
   (idle resources are the whole point of using the second core).  A
   single score per core combines both terms.

2. **Replication** — a cheap instruction whose value is needed on both
   cores, and whose own sources are already available on both cores, is
   executed twice instead of communicated.  This is what keeps loop
   induction variables and address arithmetic from ping-ponging between
   the cores.

3. **Dependence reporting for communication and speculation** — per
   instruction, which source values must cross the fabric and which
   loads face a cross-core memory dependence.  Producers come from the
   trace's dependence index (:func:`repro.trace.analysis.dependences`);
   the partitioner itself records only each instruction's cores.

The partitioner is purely *decisional*: it never touches timing state.
The orchestrator turns its decisions into uops, value tags and queue
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..isa.opcodes import OpClass
from ..trace.analysis import dependences
from ..trace.record import TraceRecord
from .params import DEFAULT_OP_WEIGHTS, FgStpParams

# Shared per-assignment ``cores`` tuples: by core, and for a replica.
_SOLO = ((0,), (1,))
_PAIR = (0, 1)

#: Every op class in value order; per-class tables are tuples indexed
#: by ``record.op_class``.
_OP_CLASSES = tuple(OpClass)
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
#: Classes never replicated whatever their weight: memory and control.
_UNREPLICABLE = frozenset((OpClass.LOAD, OpClass.STORE, OpClass.BRANCH,
                           OpClass.JUMP))


class Assignment:
    """Partitioning decision for one dynamic instruction.

    Attributes:
        seq: Dynamic sequence number (position in the tracked trace).
        cores: Execution cores (one entry, or two when replicated).
        comm_srcs: Source register values that must be communicated,
            as ``(producer_seq, dest_core)`` pairs (deduplicated by the
            orchestrator's per-(producer, core) tag map), in the order
            the orchestrator creates their tags and sends them.
        mem_dep: For loads with a cross-core in-flight producer store:
            ``(store_seq, store_pc)``; ``None`` otherwise.
        stolen: True when load balance overrode producer affinity (the
            instruction was "stolen" by the lighter core; surfaced as a
            trace event, never part of the result).
        replicated: Convenience flag (``len(cores) == 2``).
    """

    __slots__ = ("seq", "cores", "comm_srcs", "mem_dep", "stolen")

    def __init__(self, seq: int, cores: Tuple[int, ...],
                 comm_srcs: List[Tuple[int, int]],
                 mem_dep: Optional[Tuple[int, int]] = None,
                 stolen: bool = False):
        self.seq = seq
        self.cores = cores
        self.comm_srcs = comm_srcs
        self.mem_dep = mem_dep
        self.stolen = stolen

    @property
    def replicated(self) -> bool:
        return len(self.cores) == 2

    def __repr__(self) -> str:
        return (f"Assignment(seq={self.seq}, cores={self.cores}, "
                f"comm_srcs={self.comm_srcs}, mem_dep={self.mem_dep}, "
                f"stolen={self.stolen})")


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

    :meth:`track` installs the trace's dependence index and a per-seq
    core mask (1 = core 0, 2 = core 1, 3 = replicated).  A seq is a
    position in the tracked trace; records' own ``seq`` fields are never
    read.  Every pass reads a source's producer from the index and finds
    its cores by where the producer lies:

    * at or above the batch's first seq it is in the batch, so its
      cores are this call's (pass-1 ``cores``, the replicated set);
    * below the commit frontier its value is visible on both cores;
    * otherwise the mask holds them.  Emission writes the mask as it
      goes, so it reads every uncommitted producer there.

    Re-partitioning a seq simply overwrites its mask entry, so a squash
    leaves nothing to undo.  This is exact because fetch is in order
    and a squash re-fetches from the squashed load: when seq *s* is
    partitioned, every older seq carries its current assignment.  The
    trace's latest older writer of a source, with its mask entry, is
    therefore what a register or memory writer map would hold, and the
    only entries such a map would drop are committed ones, which every
    pass filters by the commit frontier.
    """

    #: Core-assignment policy ``(partitioner, batch) -> cores`` that
    #: replaces :meth:`_assign_pass` (set by
    #: :func:`repro.fgstp.policies.set_policy`).  Called with the
    #: partitioner as an argument, it holds no reference back to it.
    policy = None

    def __init__(self, params: FgStpParams):
        self.params = params
        self.weights = dict(DEFAULT_OP_WEIGHTS)
        self.stats = PartitionStats()
        self._load = [0.0, 0.0]
        self._committed_seq = 0
        self._first_seq = 0
        # The tracked trace's dependence index (per-position producers
        # and load producer stores) and each seq's current core mask.
        self._deps: Tuple[list, list] = ([], [])
        self._mask = bytearray()
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
        # Batch offsets where balance overrode affinity (trace events
        # only; cleared every partition() call).
        self._last_steals: Set[int] = set()

    def _class_weights(self) -> Tuple[float, ...]:
        """:attr:`weights` as a tuple indexed by ``OpClass`` value."""
        return tuple(map(self.weights.__getitem__, _OP_CLASSES))

    def track(self, trace: Sequence[TraceRecord]) -> None:
        """Partition *trace* from its start: index it, clear the mask.

        Index and mask are addressed by position in *trace*, whatever
        its records' ``seq`` fields hold.
        """
        self._mask = bytearray(len(trace))
        self.index_trace(trace)

    def index_trace(self, trace: Sequence[TraceRecord]) -> None:
        """Install *trace*'s dependence index and keep the core mask, as
        a run resumed from a checkpoint needs.  A snapshot taken over a
        shorter prefix of *trace* resumes too: the mask grows to the
        trace's length."""
        self._deps = dependences(trace)
        self._mask.extend(bytes(len(trace) - len(self._mask)))

    # ------------------------------------------------------------------
    # Batch partitioning
    # ------------------------------------------------------------------

    def partition(self, batch: Sequence[TraceRecord], first_seq: int,
                  committed_seq: int = 0) -> List[Assignment]:
        """Assign every instruction in *batch* and record its cores.

        Args:
            batch: The next records of the tracked trace, in dynamic
                order — after a squash, from the squashed seq.
            first_seq: The position of ``batch[0]`` in the tracked
                trace; ``batch[k]`` is seq ``first_seq + k``.
            committed_seq: The global commit frontier — values produced
                by instructions older than this are architecturally
                visible on both cores and never need communication.

        Returns one :class:`Assignment` per record, in order.
        """
        if not batch:
            return []
        self._first_seq = first_seq
        self._committed_seq = committed_seq
        self._last_steals.clear()
        policy = self.policy
        cores = (self._assign_pass(batch) if policy is None
                 else policy(self, batch))
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
        weight_of = self._class_weights()
        recent = params.affinity_recent
        threshold = params.balance_factor * 40.0
        load = self._load
        load0, load1 = load
        committed = self._committed_seq
        producers = self._deps[0]
        mask = self._mask
        pair_map = self._pair_map
        store_pc_core = self._store_pc_core
        mem_pc_core = self._mem_pc_core
        steals = self._last_steals
        cores: List[int] = []
        first = self._first_seq
        for offset, record in enumerate(batch):
            seq = first + offset
            op_class = record.op_class
            # Closest in-flight producer (register chain): the youngest
            # in this batch, else a single-core one from earlier batches.
            closest_core = -1
            closest_seq = -1
            for producer in producers[seq]:
                if producer <= closest_seq or producer < committed:
                    continue
                if producer >= first:
                    closest_core = cores[producer - first]
                    closest_seq = producer
                elif mask[producer] != 3:
                    closest_core = mask[producer] - 1
                    closest_seq = producer
            # Learned memory pairing: a load previously caught depending
            # on some store PC follows that store's core (addresses are
            # unknown at partition time; this PC pair table is trained
            # by dependence violations).  The highest-confidence partner
            # whose core is known wins; ties go to the older partner.
            pair_core = -1
            is_memory = op_class == _LOAD or op_class == _STORE
            if op_class == _LOAD:
                partners = pair_map.get(record.pc)
                if partners:
                    best = 0
                    for store_pc, confidence in partners.items():
                        if pair_core < 0 or confidence > best:
                            known = store_pc_core.get(store_pc)
                            if known is not None:
                                pair_core = known
                                best = confidence

            if pair_core >= 0:
                core = pair_core
            elif closest_seq >= 0 and seq - closest_seq <= recent:
                core = closest_core
            else:
                sticky = mem_pc_core.get(record.pc) if is_memory else None
                if sticky is not None:
                    # Keep each static memory site next to the L1D that
                    # holds its lines.
                    core = sticky
                else:
                    imbalance = load0 - load1  # positive: core 0 heavier
                    lighter = 0 if imbalance <= 0 else 1
                    if closest_seq >= 0:
                        # Distant producer: slack edge — balance decides
                        # unless the system is already even.
                        if abs(imbalance) < threshold:
                            core = closest_core
                        else:
                            core = lighter
                            if core != closest_core:
                                steals.add(offset)
                    else:
                        core = lighter

            cores.append(core)
            if core:
                load1 += weight_of[op_class]
            else:
                load0 += weight_of[op_class]
            if is_memory:
                mem_pc_core[record.pc] = core
                if op_class == _STORE:
                    store_pc_core[record.pc] = core
        # Decay the running load so ancient history does not swamp the
        # balance signal.
        load[0] = load0 * 0.9
        load[1] = load1 * 0.9
        return cores

    # -- pass 2: replication ------------------------------------------

    def _replication_pass(self, batch: Sequence[TraceRecord],
                          cores: List[int]) -> Set[int]:
        """Offsets (into *batch*) of instructions to replicate."""
        if not self.params.replication:
            return set()
        max_weight = self.params.replication_max_weight
        replicable = tuple(
            op_class not in _UNREPLICABLE and weight <= max_weight
            for op_class, weight in zip(_OP_CLASSES, self._class_weights()))

        producers = self._deps[0]
        mask = self._mask
        committed = self._committed_seq
        first = self._first_seq

        # Consumer cores per batch offset (who reads my value, and
        # where) as a 2-bit mask: bit c set when core c reads it.
        consumer_mask = [0] * len(batch)
        for offset in range(len(batch)):
            sources = producers[first + offset]
            if sources:
                bit = 1 << cores[offset]
                for producer in sources:
                    if producer >= first:
                        consumer_mask[producer - first] |= bit

        replicated: Set[int] = set()
        for offset, consumers in enumerate(consumer_mask):
            # Only a record with a destination has consumers.
            if consumers != 3:
                continue
            record = batch[offset]
            if not replicable[record.op_class]:
                continue
            # Replication is profitable when at most one source value has
            # to be *seeded* across the fabric: the replica then saves the
            # (repeated) communication of this instruction's own value.
            # Sources available on both cores — committed state, values
            # produced by replicas — are free; a repeated source counts
            # once per occurrence.
            seed_cost = 0
            for producer in producers[first + offset]:
                if producer >= first:
                    if producer - first not in replicated:
                        seed_cost += 1
                elif producer >= committed and mask[producer] != 3:
                    seed_cost += 1
            if seed_cost <= 1:
                replicated.add(offset)
        return replicated

    # -- pass 3: emission ----------------------------------------------

    def _emit_pass(self, batch: Sequence[TraceRecord], cores: List[int],
                   replicated: Set[int]) -> List[Assignment]:
        producers, stores = self._deps
        mask = self._mask
        steals = self._last_steals
        committed = self._committed_seq
        assignments: List[Assignment] = []
        solo_core1 = replicas = comm_values = cross_mem_deps = 0
        first = self._first_seq
        for offset, record in enumerate(batch):
            seq = first + offset
            if replicated and offset in replicated:
                my_cores: Tuple[int, ...] = _PAIR
                my_mask = 3
                replicas += 1
            else:
                core = cores[offset]
                my_cores = _SOLO[core]
                my_mask = 1 << core
                solo_core1 += core
            mask[seq] = my_mask

            # Source communication needs (committed values are visible
            # everywhere and never cross the fabric).  Iterating a set
            # of two or more sources fixes tag creation and send order.
            comm_srcs: List[Tuple[int, int]] = []
            srcs = record.srcs
            if srcs:
                sources = producers[seq]
                if len(srcs) > 1:
                    sources = [sources[srcs.index(src)] for src in set(srcs)]
                for producer in sources:
                    if producer < committed:
                        continue
                    producer_mask = mask[producer]
                    for dest in my_cores:
                        if not producer_mask >> dest & 1:
                            comm_srcs.append((producer, dest))
                comm_values += len(comm_srcs)
            # Cross-core memory dependence (single-core loads only;
            # same-core pairs are handled by the core's own store
            # forwarding).
            mem_dep = None
            if record.op_class == _LOAD:
                store = stores[seq]
                if store is not None and store[0] >= committed \
                        and not mask[store[0]] & my_mask:
                    mem_dep = store
                    cross_mem_deps += 1
            assignments.append(Assignment(seq, my_cores, comm_srcs, mem_dep,
                                          offset in steals))

        stats = self.stats
        stats.assigned += len(batch)
        stats.on_core[0] += len(batch) - solo_core1
        stats.on_core[1] += solo_core1 + replicas
        stats.replicated += replicas
        stats.comm_values += comm_values
        stats.cross_mem_deps += cross_mem_deps
        return assignments

    # ------------------------------------------------------------------
    # Memory-pair training
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
