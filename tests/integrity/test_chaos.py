"""Fault injection proves the watchdog end to end.

Each injected fault must produce exactly the structured failure it is
designed to provoke — and the correctness-preserving perturbations must
NOT trip the watchdog (no false positives).
"""

import pytest

from repro.fgstp.orchestrator import FgStpMachine
from repro.integrity.chaos import (ChaosError, ChaosSpec, apply_chaos,
                                   maybe_apply_env_chaos, spec_from_env)
from repro.integrity.errors import SimulationHang
from repro.obs.tracer import PipelineTracer
from repro.uarch.pipeline.machine import SingleCoreMachine
from repro.workloads.generator import generate_trace

WINDOW = 1_500  # small watchdog window keeps chaos tests fast


# -- spec parsing ------------------------------------------------------

def test_spec_parses_and_round_trips():
    spec = ChaosSpec.parse("stuck_queue:after=3,queue=1")
    assert spec.kind == "stuck_queue"
    assert spec.get("after", 0) == 3
    assert spec.get("queue", -1) == 1
    assert spec.get("missing", 42) == 42
    assert ChaosSpec.parse(str(spec)) == spec
    assert ChaosSpec.parse("commit_stall").params == ()


def test_spec_rejects_garbage():
    with pytest.raises(ChaosError, match="unknown chaos kind"):
        ChaosSpec.parse("melt_rob")
    with pytest.raises(ChaosError, match="key=value"):
        ChaosSpec.parse("stuck_queue:after")
    with pytest.raises(ChaosError, match="integer"):
        ChaosSpec.parse("stuck_queue:after=soon")


def test_spec_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    assert spec_from_env() is None
    monkeypatch.setenv("REPRO_CHAOS", "drop_sends:every=2")
    assert spec_from_env() == ChaosSpec.parse("drop_sends:every=2")


def test_strict_apply_rejects_inapplicable_kind(small_config):
    machine = SingleCoreMachine(small_config)
    with pytest.raises(ChaosError, match="does not apply"):
        apply_chaos(machine, ChaosSpec.parse("stuck_queue"))
    # Non-strict (the env path) skips silently.
    apply_chaos(machine, ChaosSpec.parse("stuck_queue"), strict=False)


def test_env_chaos_applies_to_built_machine(monkeypatch, small_config):
    monkeypatch.setenv("REPRO_CHAOS", "stuck_queue:after=0")
    machine = maybe_apply_env_chaos(
        FgStpMachine(small_config, watchdog_window=WINDOW))
    with pytest.raises(SimulationHang):
        machine.run(generate_trace("gcc", 1000))


# -- hang-provoking faults ---------------------------------------------

def test_stuck_queue_livelock_detected_within_10k_cycles(small_config):
    """The headline acceptance criterion: an inter-core livelock is
    flagged as a structured hang in well under 10k cycles, not 200M."""
    machine = FgStpMachine(small_config, watchdog_window=WINDOW)
    apply_chaos(machine, ChaosSpec.parse("stuck_queue:after=0"))
    trace = generate_trace("gcc", 2000)
    with pytest.raises(SimulationHang) as excinfo:
        machine.run(trace)
    error = excinfo.value
    assert error.cycles < 10_000
    assert error.failure_class == "hang:intercore"
    assert error.instructions < len(trace)
    assert len(error.snapshot["queues"]) == 2
    assert error.partial["cycles"] == error.cycles


def test_drop_sends_loses_a_value_and_hangs(small_config):
    machine = FgStpMachine(small_config, watchdog_window=WINDOW)
    apply_chaos(machine, ChaosSpec.parse("drop_sends:every=1"))
    with pytest.raises(SimulationHang) as excinfo:
        machine.run(generate_trace("gcc", 2000))
    assert excinfo.value.cycles < 10_000


def test_commit_stall_starves_fgstp_retirement(small_config):
    tracer = PipelineTracer()
    machine = FgStpMachine(small_config, watchdog_window=WINDOW,
                           tracer=tracer)
    apply_chaos(machine, ChaosSpec.parse("commit_stall:after=150"))
    with pytest.raises(SimulationHang) as excinfo:
        machine.run(generate_trace("gcc", 2000))
    error = excinfo.value
    assert error.failure_class == "hang:intercore"
    # Exactly 150 uops retire in seq order, each replica counted: one
    # replicated pair among them makes 149 instructions.
    retired = tracer.events("uop")
    seqs = [event.seq for event in retired]
    assert len(seqs) == 150
    assert seqs == sorted(seqs)
    assert sum(event.replica for event in retired) == 2
    assert error.instructions == 149


def test_commit_stall_on_single_core_machine(small_config):
    machine = SingleCoreMachine(small_config, watchdog_window=WINDOW)
    apply_chaos(machine, ChaosSpec.parse("commit_stall:after=100"))
    with pytest.raises(SimulationHang) as excinfo:
        machine.run(generate_trace("gcc", 2000))
    error = excinfo.value
    assert error.failure_class == "hang:core"
    # The injector stalls at commit-group granularity, so retirement may
    # overshoot ``after`` by at most one group.
    assert error.instructions <= 100 + small_config.commit_width


# -- perturbations that must NOT hang ----------------------------------

def test_duplicate_sends_is_not_a_false_positive(small_config):
    """Burning queue bandwidth slows the run but preserves progress;
    the watchdog must stay silent."""
    trace = generate_trace("gcc", 2000)
    clean = FgStpMachine(small_config, watchdog_window=WINDOW).run(trace)
    noisy = FgStpMachine(small_config, watchdog_window=WINDOW)
    apply_chaos(noisy, ChaosSpec.parse("duplicate_sends:every=1"))
    result = noisy.run(trace)
    assert result.instructions == clean.instructions == len(trace)
    # Timing may shift a little either way (ghost copies perturb queue
    # ordering); what matters is that the run completes un-flagged.
    assert abs(result.cycles - clean.cycles) < clean.cycles


def test_corrupt_specdep_squash_storm_still_progresses(small_config):
    """Forcing 'speculate' on every load provokes violations, but the
    squash/recovery path must keep committing."""
    machine = FgStpMachine(small_config, watchdog_window=WINDOW)
    apply_chaos(machine, ChaosSpec.parse("corrupt_specdep:sync=0"))
    trace = generate_trace("gcc", 2000)
    result = machine.run(trace)
    assert result.instructions == len(trace)


def test_corrupt_specdep_forced_sync_still_progresses(small_config):
    machine = FgStpMachine(small_config, watchdog_window=WINDOW)
    apply_chaos(machine, ChaosSpec.parse("corrupt_specdep:sync=1"))
    trace = generate_trace("gcc", 2000)
    result = machine.run(trace)
    assert result.instructions == len(trace)
