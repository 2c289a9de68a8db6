"""Unit tests for the Fg-STP partitioner."""

import pytest

from repro.fgstp.params import FgStpParams
from repro.fgstp.partitioner import Partitioner
from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord


def alu(seq, dst, srcs=()):
    return TraceRecord(seq, seq, OpClass.IALU, dst, tuple(srcs))


def load(seq, dst, addr, srcs=(20,)):
    return TraceRecord(seq, seq, OpClass.LOAD, dst, tuple(srcs),
                       mem_addr=addr, mem_size=8)


def store(seq, addr, srcs=(20, 21)):
    return TraceRecord(seq, seq, OpClass.STORE, None, tuple(srcs),
                       mem_addr=addr, mem_size=8)


def make_partitioner(**changes):
    return Partitioner(FgStpParams(**changes))


def test_assigns_every_instruction():
    partitioner = make_partitioner()
    batch = [alu(i, dst=(i % 5) + 1) for i in range(20)]
    partitioner.track(batch)
    assignments = partitioner.partition(batch, 0)
    assert len(assignments) == 20
    for assignment in assignments:
        assert assignment.cores in ((0,), (1,), (0, 1))


def test_chains_stay_on_one_core():
    partitioner = make_partitioner()
    # Two independent tight chains using distinct registers.
    batch = []
    for i in range(12):
        if i % 2 == 0:
            batch.append(alu(i, dst=1, srcs=(1,)))
        else:
            batch.append(alu(i, dst=2, srcs=(2,)))
    partitioner.track(batch)
    assignments = partitioner.partition(batch, 0)
    chain_a = {assignments[i].cores for i in range(0, 12, 2)}
    chain_b = {assignments[i].cores for i in range(1, 12, 2)}
    assert len(chain_a) == 1
    assert len(chain_b) == 1


def test_independent_chains_split_across_cores():
    partitioner = make_partitioner()
    batch = []
    for i in range(40):
        reg = (i % 2) + 1
        batch.append(alu(i, dst=reg, srcs=(reg,)))
    partitioner.track(batch)
    assignments = partitioner.partition(batch, 0)
    used_cores = {assignment.cores[0] for assignment in assignments}
    assert used_cores == {0, 1}


def test_mem_sites_sticky_by_pc():
    """A static memory site keeps going to the same core (locality)."""
    partitioner = make_partitioner()
    batch = []
    for i in range(20):
        batch.append(TraceRecord(i, 77, OpClass.LOAD, 3, (20,),
                                 mem_addr=0x1000 + 8 * i, mem_size=8))
    partitioner.track(batch)
    assignments = partitioner.partition(batch, 0)
    assert len({a.cores for a in assignments}) == 1


def test_learned_pair_colocates_load_with_store():
    """After learn_pair (a violation), the load follows its store's core."""
    partitioner = make_partitioner()
    load_pc, store_pc = 60, 50

    def batch(start):
        records = []
        seq = start
        for i in range(6):
            records.append(TraceRecord(seq, store_pc, OpClass.STORE, None,
                                       (1, 1), mem_addr=0x100 + 8 * i,
                                       mem_size=8))
            seq += 1
            records.append(TraceRecord(seq, load_pc, OpClass.LOAD, 2,
                                       (2,), mem_addr=0x100 + 8 * i,
                                       mem_size=8))
            seq += 1
        return records

    partitioner.track(batch(0) + batch(12))
    partitioner.partition(batch(0), 0)
    partitioner.learn_pair(load_pc, store_pc)
    assignments = partitioner.partition(batch(12), 12)
    store_cores = {assignments[i].cores[0] for i in range(0, 12, 2)}
    load_cores = {assignments[i].cores[0] for i in range(1, 12, 2)}
    assert store_cores == load_cores


def test_cross_core_mem_dep_reported_truthfully():
    """When a store/load pair does split, the true dependence (by
    address, the hardware's knowledge) is reported for speculation."""
    partitioner = make_partitioner()
    # Pin the store's site to core 0 and the load's chain to core 1.
    warm = [TraceRecord(i, 50, OpClass.STORE, None, (1, 1),
                        mem_addr=0x900, mem_size=8) for i in range(2)]
    chain = [TraceRecord(2 + i, 70 + i, OpClass.IALU, 5, (5,))
             for i in range(20)]
    batch = [
        TraceRecord(22, 50, OpClass.STORE, None, (1, 1),
                    mem_addr=0xA00, mem_size=8),
        TraceRecord(23, 90, OpClass.LOAD, 5, (5,),
                    mem_addr=0xA00, mem_size=8),
    ]
    partitioner.track(warm + chain + batch)
    partitioner.partition(warm, 0)
    store_core = partitioner._store_pc_core[50]
    assignments = partitioner.partition(chain, 2)
    chain_core = assignments[-1].cores[0]
    result = partitioner.partition(batch, 22)
    if result[1].cores[0] != result[0].cores[0]:
        assert result[1].mem_dep == (22, 50)
    else:
        assert result[1].mem_dep is None


def test_cross_core_mem_dep_reported():
    partitioner = make_partitioner()
    # Chain on r1 pins instructions to one core; force a store whose
    # consumer load is pulled to the other core by its register chain.
    batch_a = [alu(i, dst=1, srcs=(1,)) for i in range(10)]
    batch_a.append(store(10, addr=0x4000, srcs=(1, 1)))
    # Next batch: a fresh chain (seeded on the lighter core) reads it.
    batch_b = [alu(11 + i, dst=2, srcs=(2,)) for i in range(30)]
    batch_b.append(load(41, dst=2, addr=0x4000, srcs=(2,)))
    partitioner.track(batch_a + batch_b)
    assignments_a = partitioner.partition(batch_a, 0)
    store_core = assignments_a[-1].cores[0]
    assignments_b = partitioner.partition(batch_b, 11)
    load_assignment = assignments_b[-1]
    if load_assignment.cores[0] != store_core:
        assert load_assignment.mem_dep == (10, 10)
    else:
        assert load_assignment.mem_dep is None


def test_committed_values_need_no_communication():
    partitioner = make_partitioner()
    partitioner.track([alu(0, dst=1), alu(1, dst=2, srcs=(1,))])
    partitioner.partition([alu(0, dst=1)], 0)
    # Producer commits; the consumer partitioned later must not report
    # any communication for r1.
    assignments = partitioner.partition([alu(1, dst=2, srcs=(1,))], 1,
                                        committed_seq=1)
    assert assignments[0].comm_srcs == []


def test_replication_of_shared_cheap_value():
    partitioner = make_partitioner()
    # A cheap instruction consumed by two separate chains that land on
    # different cores; its own source is committed (live-in).
    batch = [alu(0, dst=3)]  # the shared value (no sources)
    for i in range(1, 21):
        reg = (i % 2) + 1
        batch.append(alu(i, dst=reg, srcs=(reg, 3)))
    partitioner.track(batch)
    assignments = partitioner.partition(batch, 0, committed_seq=0)
    consumer_cores = {assignments[i].cores[0] for i in range(1, 21)}
    if consumer_cores == {0, 1}:
        assert assignments[0].replicated
        assert partitioner.stats.replicated >= 1


def test_replication_disabled():
    partitioner = make_partitioner(replication=False)
    batch = [alu(0, dst=3)]
    for i in range(1, 21):
        reg = (i % 2) + 1
        batch.append(alu(i, dst=reg, srcs=(reg, 3)))
    partitioner.track(batch)
    assignments = partitioner.partition(batch, 0)
    assert not any(a.replicated for a in assignments)


def test_expensive_ops_never_replicated():
    partitioner = make_partitioner()
    batch = [TraceRecord(0, 0, OpClass.FDIV, 33, ())]
    for i in range(1, 21):
        reg = (i % 2) + 34
        batch.append(TraceRecord(i, i, OpClass.FADD, reg, (reg, 33)))
    partitioner.track(batch)
    assignments = partitioner.partition(batch, 0)
    assert not assignments[0].replicated


def test_rewind_then_repartition_is_well_formed():
    """A squash re-partitions from the squashed seq with nothing undone.
    Heuristic state (running load, line affinity) deliberately survives,
    so assignments may differ — but the re-partition must be
    structurally valid and leave the core mask equal to its cores."""
    partitioner = make_partitioner()
    batch = [alu(i, dst=(i % 3) + 1, srcs=((i % 3) + 1,))
             for i in range(12)]
    partitioner.track(batch)
    first = partitioner.partition(list(batch), 0)
    second = partitioner.partition(list(batch), 0)
    assert len(second) == len(first)
    assert all(a.cores in ((0,), (1,), (0, 1)) for a in second)
    assert list(partitioner._mask) == [
        sum(1 << core for core in a.cores) for a in second]


def test_stats_accumulate():
    partitioner = make_partitioner()
    batch = [alu(i, dst=1) for i in range(5)]
    partitioner.track(batch)
    partitioner.partition(batch, 0)
    stats = partitioner.stats.as_dict()
    assert stats["assigned"] == 5
    assert stats["on_core0"] + stats["on_core1"] >= 5


def test_empty_batch():
    assert make_partitioner().partition([], 0) == []


def test_loads_balanced_over_long_run():
    partitioner = make_partitioner()
    batches = []
    seq = 0
    for _ in range(10):
        batch = []
        for _ in range(64):
            reg = (seq % 4) + 1
            batch.append(alu(seq, dst=reg, srcs=(reg,)))
            seq += 1
        batches.append(batch)
    partitioner.track([record for batch in batches for record in batch])
    for batch in batches:
        partitioner.partition(batch, batch[0].seq)
    stats = partitioner.stats
    share = stats.on_core[1] / stats.assigned
    assert 0.25 < share < 0.75
