"""Tests for alternative partition policies."""

import pytest

from repro.fgstp.orchestrator import FgStpMachine
from repro.fgstp.params import FgStpParams
from repro.fgstp.partitioner import Partitioner
from repro.fgstp.policies import (
    POLICIES,
    decoupled_policy,
    modulo_policy,
    policy_by_name,
    roundrobin_policy,
    set_policy,
    single_core_policy,
)
from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.uarch.params import small_core_config
from repro.uarch.pipeline.machine import simulate_single_core
from repro.workloads.generator import generate_trace


def alu(seq, dst=1, srcs=()):
    return TraceRecord(seq, seq, OpClass.IALU, dst, tuple(srcs))


def load(seq, dst, addr):
    return TraceRecord(seq, seq, OpClass.LOAD, dst, (9,),
                       mem_addr=addr, mem_size=8)


def test_registry_contents():
    assert {"chain", "roundrobin", "modulo16", "modulo64", "decoupled",
            "single"} == set(POLICIES)


def test_policy_by_name_error():
    with pytest.raises(KeyError, match="unknown policy"):
        policy_by_name("oracle")


def test_roundrobin_alternates():
    partitioner = Partitioner(FgStpParams())
    cores = roundrobin_policy(partitioner, [alu(i) for i in range(6)])
    assert cores == [0, 1, 0, 1, 0, 1]


def test_modulo_blocks():
    partitioner = Partitioner(FgStpParams())
    policy = modulo_policy(4)
    cores = policy(partitioner, [alu(i) for i in range(10)])
    assert cores == [0, 0, 0, 0, 1, 1, 1, 1, 0, 0]


def test_modulo_validation():
    with pytest.raises(ValueError):
        modulo_policy(0)


def test_decoupled_splits_memory_from_compute():
    partitioner = Partitioner(FgStpParams())
    batch = [
        alu(0, dst=5),                 # feeds the load address -> slice
        load(1, dst=6, addr=0x100),    # memory -> slice
        alu(2, dst=7, srcs=(6,)),      # consumer -> core 1
    ]
    batch[1] = TraceRecord(1, 1, OpClass.LOAD, 6, (5,),
                           mem_addr=0x100, mem_size=8)
    cores = decoupled_policy(partitioner, batch)
    assert cores[0] == 0 and cores[1] == 0
    assert cores[2] == 1


def test_single_policy_all_core0():
    partitioner = Partitioner(FgStpParams())
    cores = single_core_policy(partitioner, [alu(i) for i in range(5)])
    assert cores == [0] * 5


def test_set_policy_changes_assignment():
    partitioner = Partitioner(FgStpParams())
    set_policy(partitioner, roundrobin_policy)
    batch = [alu(i) for i in range(4)]
    partitioner.track(batch)
    assignments = partitioner.partition(batch, 0)
    assert [a.cores[0] for a in assignments] == [0, 1, 0, 1]


def test_single_policy_machine_matches_single_core():
    """Fg-STP with everything on core 0 ~= the single-core machine."""
    trace = generate_trace("hmmer", 5000)
    base = small_core_config()
    single = simulate_single_core(trace, base, warmup=1500)
    machine = FgStpMachine(base, FgStpParams(partition_latency=1),
                           policy="single")
    result = machine.run(trace, warmup=1500)
    assert abs(result.cycles - single.cycles) / single.cycles < 0.08


def test_chain_beats_roundrobin():
    from repro.uarch.params import medium_core_config
    trace = generate_trace("hmmer", 8000)
    base = medium_core_config()
    chain = FgStpMachine(base).run(trace, warmup=2500)
    rr = FgStpMachine(base, policy="roundrobin").run(trace, warmup=2500)
    assert chain.cycles < rr.cycles
