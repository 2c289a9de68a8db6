"""Tests for alternative partition policies."""

import pytest

from repro.fgstp.orchestrator import FgStpMachine
from repro.fgstp.params import FgStpParams
from repro.fgstp.partitioner import Partitioner
from repro.fgstp.policies import (
    POLICIES,
    decoupled_policy,
    modulo_policy,
    roundrobin_policy,
    single_core_policy,
)
from repro.harness.config import ExperimentConfig
from repro.harness.parallel import execute_job, make_job
from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.uarch.params import core_config, small_core_config
from repro.uarch.pipeline.machine import simulate_single_core
from repro.workloads.generator import generate_trace

from .emission import per_record


def alu(seq, dst=1, srcs=()):
    return TraceRecord(seq, seq, OpClass.IALU, dst, tuple(srcs))


def load(seq, dst, addr):
    return TraceRecord(seq, seq, OpClass.LOAD, dst, (9,),
                       mem_addr=addr, mem_size=8)


def test_registry_contents():
    assert {"chain", "roundrobin", "modulo16", "modulo64", "decoupled",
            "single"} == set(POLICIES)


def test_policy_by_name_error():
    """An unknown policy name is rejected, naming the known ones."""
    with pytest.raises(ValueError, match="unknown partition policy "
                       "'oracle'; known: .'chain', 'decoupled'"):
        FgStpParams(policy="oracle")


def test_a_chain_policy_keys_as_the_plain_parameters():
    """The policy stays out of the repr; only a non-chain one joins the
    key, so no chain key moves."""
    assert FgStpParams(policy="chain").key() == repr(FgStpParams())
    roundrobin = FgStpParams(policy="roundrobin")
    assert repr(roundrobin) == repr(FgStpParams())
    assert roundrobin.key() == f"{FgStpParams()!r}|policy=roundrobin"


def test_roundrobin_alternates():
    partitioner = Partitioner(FgStpParams())
    cores = roundrobin_policy(partitioner, [alu(i) for i in range(6)])
    assert cores == [0, 1, 0, 1, 0, 1]


def test_modulo_blocks():
    partitioner = Partitioner(FgStpParams())
    cores = modulo_policy(partitioner, [alu(i) for i in range(10)], block=4)
    assert cores == [0, 0, 0, 0, 1, 1, 1, 1, 0, 0]


def test_modulo_validation():
    with pytest.raises(ValueError):
        modulo_policy(Partitioner(FgStpParams()), [alu(0)], block=0)


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
    """The policy ``FgStpParams`` names is the partitioner's pass."""
    partitioner = Partitioner(FgStpParams(policy="roundrobin"))
    assert partitioner.policy is roundrobin_policy
    batch = [alu(i) for i in range(4)]
    partitioner.track(batch)
    assignments = per_record(partitioner, batch, 0)
    assert [a.cores[0] for a in assignments] == [0, 1, 0, 1]


def test_single_policy_machine_matches_single_core():
    """Fg-STP with everything on core 0 ~= the single-core machine."""
    trace = generate_trace("hmmer", 5000)
    base = small_core_config()
    single = simulate_single_core(trace, base, warmup=1500)
    machine = FgStpMachine(base, FgStpParams(partition_latency=1,
                                             policy="single"))
    result = machine.run(trace, warmup=1500)
    assert abs(result.cycles - single.cycles) / single.cycles < 0.08


def test_chain_beats_roundrobin():
    from repro.uarch.params import medium_core_config
    trace = generate_trace("hmmer", 8000)
    base = medium_core_config()
    chain = FgStpMachine(base).run(trace, warmup=2500)
    rr = FgStpMachine(base, FgStpParams(policy="roundrobin")).run(
        trace, warmup=2500)
    assert chain.cycles < rr.cycles


def test_the_adaptive_machine_runs_under_a_policy():
    """The policy reaches the adaptive machine's region machines through
    its parameters, as every other Fg-STP field does."""
    def job(fgstp):
        return make_job("fgstp-adaptive", "gcc", core_config("small"),
                        ExperimentConfig(6000, 1000, 1), fgstp=fgstp,
                        sample_instructions=500, region_instructions=1500)

    result = execute_job(job(FgStpParams(policy="roundrobin")))
    assert result.instructions == 5000
    assert "fgstp" in result.extra["modes"]
    assert result.cycles != execute_job(job(None)).cycles
