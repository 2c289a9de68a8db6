"""Unit tests for the cycle-level out-of-order core.

These drive the core phase-by-phase with hand-built uops, checking the
structural behaviours (widths, window limits, dataflow wakeup, store
forwarding, squash) in isolation from any fetch unit.
"""

import pytest

from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.uarch.cache.hierarchy import CacheHierarchy
from repro.uarch.params import small_core_config
from repro.uarch.pipeline.core import CycleCore
from repro.uarch.pipeline.uop import (
    COMMITTED,
    COMPLETED,
    DISPATCHED,
    ISSUED,
    SQUASHED,
    Uop,
    ValueTag,
)


def make_core(params=None, **kwargs):
    params = params or small_core_config()
    return CycleCore(params, CacheHierarchy(params), **kwargs)


def alu(seq, dst=None, srcs=()):
    return Uop(TraceRecord(seq, seq, OpClass.IALU, dst, tuple(srcs)),
               seq=seq, uid=seq)


def load(seq, dst, addr, srcs=(9,)):
    return Uop(TraceRecord(seq, seq, OpClass.LOAD, dst, tuple(srcs),
                           mem_addr=addr, mem_size=8), seq=seq, uid=seq)


def store(seq, addr, srcs=(9, 8)):
    return Uop(TraceRecord(seq, seq, OpClass.STORE, None, tuple(srcs),
                           mem_addr=addr, mem_size=8), seq=seq, uid=seq)


def fetch(core, uop, cycle):
    """Append *uop* to the core's fetch buffer, as both front ends do."""
    uop.fetch_cycle = cycle
    core._fetch_buffer.append(uop)


def run_to_commit(core, uops, max_cycles=500):
    """Feed everything, then cycle until all uops commit."""
    cursor = 0
    committed = []
    for cycle in range(max_cycles):
        committed.extend(core.phase_commit(cycle))
        core.phase_complete(cycle)
        core.phase_issue(cycle)
        core.phase_dispatch(cycle)
        while cursor < len(uops) \
                and len(core._fetch_buffer) < core._fetch_capacity:
            fetch(core, uops[cursor], cycle)
            cursor += 1
        if len(committed) == len(uops):
            return committed, cycle
    raise AssertionError("did not drain")


def test_independent_ops_flow_through():
    core = make_core()
    uops = [alu(i, dst=(i % 6) + 1) for i in range(8)]
    committed, cycles = run_to_commit(core, uops)
    assert [u.seq for u in committed] == list(range(8))
    assert all(u.state == COMMITTED for u in uops)
    assert cycles < 20


def test_commit_is_in_order():
    core = make_core()
    # seq 0 is a slow divide, seq 1 a fast add: 1 completes first but
    # must not retire before 0.
    div = Uop(TraceRecord(0, 0, OpClass.IDIV, 1, (2, 3)), seq=0, uid=0)
    add = alu(1, dst=4)
    committed, _ = run_to_commit(core, [div, add])
    assert [u.seq for u in committed] == [0, 1]
    assert add.complete_cycle < div.complete_cycle


def test_dataflow_dependency_orders_issue():
    core = make_core()
    producer = alu(0, dst=1)
    consumer = alu(1, dst=2, srcs=(1,))
    run_to_commit(core, [producer, consumer])
    assert consumer.issue_cycle > producer.issue_cycle
    assert consumer.operand_ready >= producer.complete_cycle


def test_independent_chain_pairs_overlap():
    """Two independent chains finish much faster than one serial chain."""
    serial_core = make_core()
    serial = [alu(i, dst=1, srcs=(1,)) for i in range(12)]
    _, serial_cycles = run_to_commit(serial_core, serial)

    pair_core = make_core()
    interleaved = []
    for i in range(6):
        interleaved.append(alu(2 * i, dst=1, srcs=(1,)))
        interleaved.append(alu(2 * i + 1, dst=2, srcs=(2,)))
    _, pair_cycles = run_to_commit(pair_core, interleaved)
    assert pair_cycles < serial_cycles


def test_issue_width_respected():
    params = small_core_config().with_(issue_width=1)
    core = make_core(params)
    uops = [alu(i, dst=(i % 6) + 1) for i in range(6)]
    run_to_commit(core, uops)
    issue_cycles = [u.issue_cycle for u in uops]
    assert len(set(issue_cycles)) == 6  # one per cycle


def test_fu_pool_constrains_divides():
    params = small_core_config()  # one imul/idiv unit
    core = make_core(params)
    divides = [Uop(TraceRecord(i, i, OpClass.IDIV, i % 6 + 1, ()), seq=i,
                   uid=i)
               for i in range(3)]
    run_to_commit(core, divides)
    cycles = sorted(u.issue_cycle for u in divides)
    assert cycles[0] != cycles[1] != cycles[2]


def test_rob_capacity_limits_dispatch():
    params = small_core_config().with_(rob_entries=4, iq_entries=4)
    core = make_core(params)
    # A slow head op keeps the ROB occupied.
    head = Uop(TraceRecord(0, 0, OpClass.FDIV, 33, (34, 35)), seq=0, uid=0)
    rest = [alu(i, dst=(i % 6) + 1) for i in range(1, 8)]
    run_to_commit(core, [head] + rest)
    assert core.stats.rob_full_stalls > 0


def test_lsq_capacity_limits_memory_ops():
    params = small_core_config().with_(lsq_entries=2)
    core = make_core(params)
    uops = [load(i, dst=(i % 6) + 1, addr=0x1000 + 64 * i)
            for i in range(6)]
    # Three LSQ generations of DRAM misses: needs a long budget.
    run_to_commit(core, uops, max_cycles=2000)
    assert core.stats.lsq_full_stalls > 0


def test_store_to_load_forwarding():
    core = make_core()
    st = store(0, addr=0x40)
    ld = load(1, dst=1, addr=0x40)
    run_to_commit(core, [st, ld])
    assert ld.forwarded
    assert core.stats.load_forwards == 1
    # Forwarded load never touched the D-cache for its data.
    assert ld.complete_cycle == ld.issue_cycle + 1


def test_load_without_alias_uses_cache():
    core = make_core()
    st = store(0, addr=0x40)
    ld = load(1, dst=1, addr=0x80)
    run_to_commit(core, [st, ld])
    assert not ld.forwarded


def test_external_dependency_blocks_issue():
    core = make_core()
    tag = ValueTag("ext")
    uop = alu(0, dst=1)
    uop.extra_deps.append(tag)
    fetch(core, uop, 0)
    for cycle in range(10):
        core.phase_commit(cycle)
        core.phase_complete(cycle)
        core.phase_issue(cycle)
        core.phase_dispatch(cycle)
    assert uop.state == DISPATCHED  # stuck on the tag
    for woken in tag.satisfy(10):
        core.wake(woken)
    for cycle in range(11, 30):
        core.phase_commit(cycle)
        core.phase_complete(cycle)
        core.phase_issue(cycle)
        core.phase_dispatch(cycle)
    assert uop.state == COMMITTED
    assert uop.issue_cycle >= 10


def test_pre_satisfied_tag_checked_at_dispatch():
    core = make_core()
    tag = ValueTag()
    tag.ready_cycle = 42
    uop = alu(0, dst=1)
    uop.extra_deps.append(tag)
    fetch(core, uop, 0)
    for cycle in range(60):
        core.phase_commit(cycle)
        core.phase_complete(cycle)
        core.phase_issue(cycle)
        core.phase_dispatch(cycle)
    assert uop.issue_cycle >= 42


def test_delay_uop_postpones_issue():
    core = make_core()
    uop = alu(0, dst=1)
    fetch(core, uop, 0)
    core.phase_dispatch(0)
    core.delay_uop(uop, 25)
    for cycle in range(1, 40):
        core.phase_commit(cycle)
        core.phase_complete(cycle)
        core.phase_issue(cycle)
    assert uop.issue_cycle >= 25


def test_squash_from_removes_younger():
    core = make_core()
    uops = [alu(i, dst=i + 1) for i in range(6)]
    for uop in uops:
        fetch(core, uop, 0)
    core.phase_dispatch(0)  # dispatches only fetch-width worth
    count = core.squash_from(2)
    assert count == 4
    assert uops[0].state != SQUASHED
    assert all(u.state == SQUASHED for u in uops[2:])
    assert core.rob_occupancy() <= 2


def test_squash_rebuilds_register_map():
    core = make_core()
    old_writer = alu(0, dst=5)
    new_writer = alu(1, dst=5)
    fetch(core, old_writer, 0)
    fetch(core, new_writer, 0)
    core.phase_dispatch(0)
    core.squash_from(1)
    # A later consumer of r5 must now link to the old writer.
    consumer = alu(2, dst=6, srcs=(5,))
    fetch(core, consumer, 1)
    core.phase_dispatch(1)
    assert consumer in old_writer.consumers or consumer.pending == 0


def test_drain_check_raises_when_busy():
    core = make_core()
    fetch(core, alu(0, dst=1), 0)
    with pytest.raises(RuntimeError, match="not drained"):
        core.drain_check()


def test_commit_gate_blocks_retirement():
    core = make_core()
    uop = alu(0, dst=1)
    committed = []
    cursor_pushed = False
    for cycle in range(20):
        committed.extend(core.phase_commit(cycle, gate=lambda u: False))
        core.phase_complete(cycle)
        core.phase_issue(cycle)
        core.phase_dispatch(cycle)
        if not cursor_pushed:
            fetch(core, uop, cycle)
            cursor_pushed = True
    assert not committed
    assert uop.state == COMPLETED
