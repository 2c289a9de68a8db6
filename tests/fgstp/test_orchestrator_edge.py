"""Edge-case tests for the Fg-STP orchestrator internals."""

import pytest

from repro.fgstp.orchestrator import FgStpMachine, simulate_fgstp
from repro.fgstp.params import FgStpParams
from repro.harness.runners import MACHINES, build_machine
from repro.isa.opcodes import OpClass
from repro.obs.tracer import PipelineTracer
from repro.trace.record import TraceRecord
from repro.uarch.params import small_core_config
from repro.workloads.generator import generate_trace


def alu(seq, dst=1, srcs=()):
    return TraceRecord(seq, seq, OpClass.IALU, dst, tuple(srcs))


def test_single_instruction_trace():
    result = simulate_fgstp([alu(0)], small_core_config())
    assert result.instructions == 1
    assert result.cycles > 0


def test_trace_of_only_branches():
    records = []
    for seq in range(30):
        taken = seq % 3 == 0
        records.append(TraceRecord(seq, seq % 5, OpClass.BRANCH, None,
                                   (1, 2), taken=taken,
                                   target=(seq + 1) % 5 if taken else None))
    result = simulate_fgstp(records, small_core_config())
    assert result.instructions == 30


def test_trace_of_only_memory_ops():
    records = []
    for seq in range(40):
        if seq % 2 == 0:
            records.append(TraceRecord(seq, 10, OpClass.STORE, None,
                                       (1, 2), mem_addr=0x100 + 8 * seq,
                                       mem_size=8))
        else:
            records.append(TraceRecord(seq, 11, OpClass.LOAD, 3, (1,),
                                       mem_addr=0x100 + 8 * (seq - 1),
                                       mem_size=8))
    result = simulate_fgstp(records, small_core_config())
    assert result.instructions == 40


def test_minimal_window_and_batch():
    trace = generate_trace("gcc", 1500)
    params = FgStpParams(window_size=8, batch_size=4)
    result = simulate_fgstp(trace, small_core_config(), params)
    assert result.instructions == 1500


def test_bandwidth_one_queue():
    trace = generate_trace("hmmer", 2000)
    params = FgStpParams(queue_bandwidth=1)
    result = simulate_fgstp(trace, small_core_config(), params)
    assert result.instructions == 2000


def test_zero_partition_latency():
    trace = generate_trace("gcc", 1000)
    params = FgStpParams(partition_latency=0)
    result = simulate_fgstp(trace, small_core_config(), params)
    assert result.instructions == 1000


def test_machine_not_reusable_state_isolated():
    """Two runs on one machine object are not supported; two machines
    on the same trace must agree exactly."""
    trace = generate_trace("sjeng", 1500)
    base = small_core_config()
    a = FgStpMachine(base).run(trace)
    b = FgStpMachine(base).run(trace)
    assert a.cycles == b.cycles


def test_replica_commit_counts_once():
    """Replicated uops must not inflate the architectural count."""
    trace = generate_trace("hmmer", 3000)
    result = simulate_fgstp(trace, small_core_config())
    assert result.instructions == 3000
    partition = result.extra["partition"]
    # Total executed uops can exceed the trace; retired work cannot.
    assert partition["on_core0"] + partition["on_core1"] >= 3000


def test_huge_recovery_penalty_still_terminates():
    trace = generate_trace("omnetpp", 2500)
    params = FgStpParams(recovery_penalty=500)
    result = simulate_fgstp(trace, small_core_config(), params)
    assert result.instructions == 2500


def test_commit_monotonic_seq():
    """Global retirement must be in strict sequence order: every retired
    uop (the tracer records replicas too) and every architectural
    retirement (the commit hook)."""
    base = small_core_config()
    tracer = PipelineTracer(capacity=1 << 16)
    architectural = []
    machine = FgStpMachine(
        base, tracer=tracer,
        commit_hook=lambda uop, cycle: architectural.append(uop.seq))
    trace = generate_trace("gcc", 1200)
    machine.run(trace)
    assert tracer.dropped == 0
    retired = [(event.cycle, event.seq, event.core, event.replica)
               for event in tracer.events("uop")]
    assert retired == sorted(retired, key=lambda entry: entry[:2])
    seqs = [seq for _, seq, _, _ in retired]
    non_replica = []
    for seq in seqs:
        if not non_replica or seq != non_replica[-1]:
            non_replica.append(seq)
    assert non_replica == list(range(len(trace)))
    assert architectural == non_replica
    # A replicated seq retires once on each core.
    replicas = [(seq, core) for _, seq, core, replica in retired if replica]
    assert replicas
    assert sorted(replicas) == sorted(
        (seq, core) for seq in {seq for seq, _ in replicas}
        for core in (0, 1))


@pytest.mark.parametrize("machine", MACHINES)
def test_shifted_seqs_run_like_dense_ones(machine):
    """Machines number the measured records by position and never read
    their seq fields, so a trace whose seqs start at 5 gives the dense
    trace's result.  (The partition unit used to reject such a trace.)"""
    dense = generate_trace("gcc", 600)
    shifted = [TraceRecord(r.seq + 5, r.pc, r.op_class, r.dst, r.srcs,
                           r.mem_addr, r.mem_size, r.taken, r.target)
               for r in dense]
    overrides = ({"sample_instructions": 100, "region_instructions": 200}
                 if machine == "fgstp-adaptive" else {})
    for warmup in (0, 150):
        results = [build_machine(machine, small_core_config(), **overrides)
                   .run(trace, workload="gcc", warmup=warmup).as_dict()
                   for trace in (dense, shifted)]
        assert results[0] == results[1]