"""Cycle-limit and drain guards must fail *structurally*: the raised
error carries partial statistics (with a valid CPI-stack ledger) and a
pipeline snapshot, on every machine."""

import pytest

from repro.corefusion.machine import CoreFusionMachine
from repro.fgstp.orchestrator import FgStpMachine
from repro.integrity.errors import PipelineDrainError, SimulationLimit
from repro.isa.opcodes import OpClass
from repro.stats.cpistack import CPIStack
from repro.trace.record import TraceRecord
from repro.uarch.cache.hierarchy import CacheHierarchy
from repro.uarch.pipeline.core import CycleCore
from repro.uarch.pipeline.machine import SingleCoreMachine
from repro.uarch.pipeline.uop import Uop
from repro.workloads.generator import generate_trace


def _assert_valid_partial_stack(error):
    stack = CPIStack.from_dict(error.partial["cpistack"])
    assert stack.cycles == error.cycles
    stack.validate()  # every attributed cycle has exactly one cause


def test_single_core_limit_carries_partial_stats(small_config):
    trace = generate_trace("gcc", 500)
    machine = SingleCoreMachine(small_config, max_cycles=50)
    with pytest.raises(SimulationLimit) as excinfo:
        machine.run(trace)
    error = excinfo.value
    assert error.failure_class == "limit"
    assert error.machine == "single"
    assert error.cycles > 50
    assert error.total == 500
    assert 0 <= error.instructions < 500
    _assert_valid_partial_stack(error)
    assert error.snapshot["core"]["name"] == "single"
    assert error.snapshot["fetch"]["trace_length"] == 500
    assert isinstance(error.snapshot["last_committed"], list)


def test_fgstp_limit_carries_both_cores_and_queues(small_config):
    trace = generate_trace("gcc", 500)
    machine = FgStpMachine(small_config, max_cycles=60)
    with pytest.raises(SimulationLimit) as excinfo:
        machine.run(trace)
    error = excinfo.value
    assert error.failure_class == "limit"
    assert error.machine == "fgstp"
    _assert_valid_partial_stack(error)
    assert len(error.snapshot["cores"]) == 2
    assert len(error.snapshot["queues"]) == 2
    assert error.snapshot["frontend"]["trace_length"] == 500
    assert "partitioner" in error.snapshot


def test_corefusion_limit_is_structured(small_config):
    trace = generate_trace("gcc", 500)
    machine = CoreFusionMachine(small_config, max_cycles=50)
    with pytest.raises(SimulationLimit) as excinfo:
        machine.run(trace)
    error = excinfo.value
    assert error.machine == "corefusion"
    assert error.snapshot["core"]["name"] == "corefusion"
    _assert_valid_partial_stack(error)


def test_limit_message_still_matches_legacy_pattern(small_config):
    # The pre-existing guard tests catch RuntimeError matching
    # "exceeded"; keep that contract.
    machine = SingleCoreMachine(small_config, max_cycles=3)
    with pytest.raises(RuntimeError, match="exceeded"):
        machine.run(generate_trace("gcc", 200))


def fetch(core, uop, cycle):
    """Append *uop* to the core's fetch buffer, as both front ends do."""
    uop.fetch_cycle = cycle
    core._fetch_buffer.append(uop)


def test_core_drain_error_carries_core_snapshot(small_config):
    core = CycleCore(small_config, CacheHierarchy(small_config),
                     name="probe")
    record = TraceRecord(0, 0, OpClass.IALU, 1, (1,))
    fetch(core, Uop(record, 0, 0), 0)
    with pytest.raises(PipelineDrainError, match="not drained") as excinfo:
        core.drain_check()
    error = excinfo.value
    assert error.failure_class == "drain"
    assert error.machine == "probe"
    snap = error.snapshot["core"]
    assert snap["name"] == "probe"
    assert snap["fetch_buffer"] == 1


def test_machine_enriches_core_drain_error(small_config):
    """The run wrapper attaches machine-level context without
    clobbering what the core recorded."""
    trace = generate_trace("gcc", 300)
    machine = SingleCoreMachine(small_config)
    original = machine.core.drain_check

    def leaky_drain():
        original()
        raise PipelineDrainError(
            "1 uops not drained", machine=machine.core.name,
            snapshot={"core": machine.core.snapshot()})

    machine.core.drain_check = leaky_drain
    with pytest.raises(PipelineDrainError) as excinfo:
        machine.run(trace)
    error = excinfo.value
    assert error.total == 300
    assert error.cycles > 0
    assert "core" in error.snapshot       # from the raiser
    assert "fetch" in error.snapshot      # merged in by the machine
    _assert_valid_partial_stack(error)
