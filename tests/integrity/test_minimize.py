"""Trace minimization: the ddmin core and the crash-dump replay path."""

import json

import pytest

from repro.__main__ import main
from repro.integrity.chaos import ChaosSpec, apply_chaos
from repro.integrity.errors import SimulationHang, SimulationLimit
from repro.integrity.forensics import write_crash_dump
from repro.integrity.minimize import (minimize_failure, replay_run_fn,
                                      trace_from_context)
from repro.isa.opcodes import OpClass
from repro.trace.io import read_trace
from repro.trace.record import TraceRecord
from repro.workloads.generator import generate_trace


def _alu_trace(n):
    return [TraceRecord(i, i, OpClass.IALU, 1, (1,)) for i in range(n)]


def _needs_pcs(*pcs):
    """A run_fn failing exactly when all *pcs* are present."""
    required = set(pcs)

    def run(candidate):
        if required <= {record.pc for record in candidate}:
            raise SimulationHang("synthetic", detail="unit")

    return run


def test_ddmin_shrinks_to_the_minimal_pair():
    result = minimize_failure(_alu_trace(40), _needs_pcs(3, 11))
    assert result.reproduced
    assert result.failure_class == "hang:unit"
    assert result.original_length == 40
    assert result.minimized_length == 2
    assert {record.pc for record in result.records} == {3, 11}
    # Minimized traces are re-sequenced (machines need dense seq).
    assert [record.seq for record in result.records] == [0, 1]
    assert result.last_error is not None


def test_ddmin_single_record_trigger():
    result = minimize_failure(_alu_trace(33), _needs_pcs(17))
    assert result.minimized_length == 1
    assert result.records[0].pc == 17


def test_non_reproducing_failure_returns_empty():
    def healthy(candidate):
        return None

    result = minimize_failure(_alu_trace(20), healthy)
    assert not result.reproduced
    assert result.records == []
    assert result.tests_run == 1


def test_failure_class_mismatch_stops_immediately():
    result = minimize_failure(_alu_trace(20), _needs_pcs(3),
                              failure_class="limit")
    assert not result.reproduced


def test_class_switch_mid_search_is_not_accepted():
    """A candidate that fails *differently* must be rejected."""
    def run(candidate):
        pcs = {record.pc for record in candidate}
        if {3, 11} <= pcs:
            raise SimulationHang("hang", detail="unit")
        if 3 in pcs:
            raise SimulationLimit("other failure")

    result = minimize_failure(_alu_trace(40), run)
    assert result.reproduced
    assert result.failure_class == "hang:unit"
    assert {record.pc for record in result.records} == {3, 11}


def test_probe_budget_is_respected():
    result = minimize_failure(_alu_trace(200), _needs_pcs(7, 151),
                              max_tests=10)
    assert result.tests_run <= 10
    assert result.reproduced  # best-so-far result is kept


def test_end_to_end_replay_shrinks_injected_livelock(monkeypatch,
                                                     small_config):
    """Acceptance: the replay path reproduces a chaos hang from its
    recipe and shrinks the trace to <= 32 records failing identically."""
    monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    context = {"machine": "fgstp", "config": "small", "benchmark": "gcc",
               "length": 1500, "seed": 1, "chaos": "stuck_queue:after=0"}
    trace = trace_from_context(context)
    assert len(trace) == 1500
    result = minimize_failure(trace, replay_run_fn(context),
                              failure_class="hang:intercore")
    assert result.reproduced
    assert result.minimized_length <= 32
    assert result.last_error.failure_class == "hang:intercore"


@pytest.mark.parametrize("recorded", [
    "fgstp-core1",  # a drain error names the failing core
    "",
])
def test_replay_falls_back_to_the_fgstp_machine(recorded):
    run = replay_run_fn({"machine": recorded, "config": "small"})
    assert run(generate_trace("gcc", 200)).machine == "fgstp"


def test_trace_from_context_requires_a_recipe():
    with pytest.raises(KeyError):
        trace_from_context({})
    with pytest.raises(KeyError, match="length"):
        trace_from_context({"benchmark": "gcc"})


def test_trace_from_context_rebuilds_a_kernel_program():
    from repro.oracle.golden import GoldenStream
    from repro.workloads.kernels import KERNELS

    trace = trace_from_context({"kernel": "vector_sum"})
    assert len(trace) == 9007
    assert trace == GoldenStream.from_program(
        KERNELS["vector_sum"]()).records


def test_cli_oracle_kernel_dump_names_and_shrinks_its_kernel(
        tmp_path, monkeypatch, capsys):
    """A ``repro oracle --kernel`` crash dump records the kernel and none
    of the benchmark sizing the run did not use, and ``repro minimize``
    shrinks that kernel's trace."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CHAOS", "stuck_queue:after=0")
    monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
    assert main(["oracle", "--kernel", "vector_sum",
                 "--machines", "fgstp"]) == 1
    [dump] = (tmp_path / ".repro_cache" / "crashes").glob("*.json")
    context = json.loads(dump.read_text())["context"]
    assert context["kernel"] == "vector_sum"
    assert not {"benchmark", "length", "warmup", "seed"} & set(context)

    monkeypatch.delenv("REPRO_CHAOS")  # the recipe carries the spec
    assert main(["minimize", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "minimizing 9007-record trace preserving hang:intercore" in out


def test_cli_minimize_writes_fixture_and_sidecar(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    # Produce a real dump by running the chaos machine.
    from repro.fgstp.orchestrator import FgStpMachine
    from repro.uarch.params import small_core_config

    machine = FgStpMachine(small_core_config(), watchdog_window=1000)
    apply_chaos(machine, ChaosSpec.parse("stuck_queue:after=0"))
    with pytest.raises(SimulationHang) as excinfo:
        machine.run(generate_trace("gcc", 1500))
    write_crash_dump(
        excinfo.value, directory=tmp_path,
        context={"machine": "fgstp", "config": "small",
                 "benchmark": "gcc", "length": 1500, "seed": 1,
                 "chaos": "stuck_queue:after=0"})

    output = tmp_path / "fixture.min.trace"
    code = main(["minimize", "--crash-dir", str(tmp_path),
                 "--output", str(output)])
    assert code == 0
    fixture = read_trace(output)
    assert 0 < len(fixture) <= 32
    sidecar = json.loads(output.with_suffix(".json").read_text())
    assert sidecar["failure_class"] == "hang:intercore"
    assert sidecar["minimized_length"] == len(fixture)
    assert sidecar["context"]["chaos"] == "stuck_queue:after=0"
    assert "minimized 1500 ->" in capsys.readouterr().out

    # The fixture itself still fails the same way: a regression test.
    replay = replay_run_fn(sidecar["context"])
    with pytest.raises(SimulationHang):
        replay(fixture)


def test_cli_minimize_without_dumps_is_usage_error(tmp_path, capsys):
    assert main(["minimize", "--crash-dir", str(tmp_path)]) == 2


def test_cli_minimize_unreproducible_dump_exits_one(tmp_path, monkeypatch,
                                                    capsys):
    # A dump whose recipe runs cleanly (no chaos): nothing reproduces.
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    error = SimulationHang("stale", machine="fgstp", detail="intercore",
                           context={"machine": "fgstp", "config": "small",
                                    "benchmark": "gcc", "length": 400,
                                    "seed": 1})
    write_crash_dump(error, directory=tmp_path)
    assert main(["minimize", "--crash-dir", str(tmp_path)]) == 1
    assert "did not reproduce" in capsys.readouterr().err
