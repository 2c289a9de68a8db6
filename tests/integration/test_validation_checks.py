"""Unit tests for every cross-model validation check: pass AND fail.

The integration battery (``test_validation.py``) proves the checks
pass on real machines; these tests stub the simulators out at the
``repro.validation`` namespace to drive each check's failure branch —
the branch a healthy codebase never exercises end to end.
"""

import json

import pytest

import repro.validation as validation
from repro.integrity.errors import SimulationError, SimulationHang
from repro.validation import (
    CHECKS,
    check_all_machines_commit_identical_work,
    check_determinism,
    check_fgstp_single_policy_matches_single_core,
    check_ipc_bounds,
    check_more_resources_never_catastrophic,
    check_watchdog_fires_on_injected_livelock,
    validate_all,
)


class FakeResult:
    def __init__(self, cycles=1000, instructions=100, ipc=1.0):
        self.cycles = cycles
        self.instructions = instructions
        self.ipc = ipc


def _patch_simulators(monkeypatch, single, fusion, fgstp):
    """Replace the three simulate_* entry points with canned results.

    Each argument is either a FakeResult or a callable returning one
    (called per invocation, for non-deterministic stubs).
    """
    def fn(canned):
        if callable(canned):
            return lambda trace, base: canned()
        return lambda trace, base: canned

    monkeypatch.setattr(validation, "simulate_single_core", fn(single))
    monkeypatch.setattr(validation, "simulate_core_fusion", fn(fusion))
    monkeypatch.setattr(validation, "simulate_fgstp", fn(fgstp))


@pytest.fixture
def trace():
    # The checks only size and slice the trace; records are opaque.
    return [object()] * 100


@pytest.fixture
def base(small_config):
    return small_config


class TestIdenticalCommittedWork:

    def test_pass(self, monkeypatch, trace, base):
        _patch_simulators(monkeypatch,
                          FakeResult(instructions=100),
                          FakeResult(instructions=100),
                          FakeResult(instructions=100))
        result = check_all_machines_commit_identical_work(trace, base)
        assert result.passed

    def test_fail_on_divergent_counts(self, monkeypatch, trace, base):
        _patch_simulators(monkeypatch,
                          FakeResult(instructions=100),
                          FakeResult(instructions=100),
                          FakeResult(instructions=99))
        result = check_all_machines_commit_identical_work(trace, base)
        assert not result.passed
        assert "99" in result.detail

    def test_fail_when_counts_agree_but_miss_the_trace(
            self, monkeypatch, trace, base):
        _patch_simulators(monkeypatch,
                          FakeResult(instructions=50),
                          FakeResult(instructions=50),
                          FakeResult(instructions=50))
        result = check_all_machines_commit_identical_work(trace, base)
        assert not result.passed


class _StubFgStpMachine:
    """FgStpMachine stand-in returning a fixed cycle count."""

    cycles = 1000

    def __init__(self, base, fgstp=None, policy="", **kwargs):
        pass

    def run(self, trace, **kwargs):
        return FakeResult(cycles=type(self).cycles)


class TestSinglePolicyEquivalence:

    def _arm(self, monkeypatch, single_cycles, degenerate_cycles):
        _patch_simulators(monkeypatch,
                          FakeResult(cycles=single_cycles),
                          FakeResult(), FakeResult())

        class Stub(_StubFgStpMachine):
            cycles = degenerate_cycles

        monkeypatch.setattr(validation, "FgStpMachine", Stub)

    def test_pass_within_tolerance(self, monkeypatch, trace, base):
        self._arm(monkeypatch, 1000, 1050)
        result = check_fgstp_single_policy_matches_single_core(
            trace, base)
        assert result.passed

    def test_fail_beyond_tolerance(self, monkeypatch, trace, base):
        self._arm(monkeypatch, 1000, 1500)
        result = check_fgstp_single_policy_matches_single_core(
            trace, base)
        assert not result.passed
        assert "delta" in result.detail


class TestIpcBounds:

    def test_pass(self, monkeypatch, trace, base):
        _patch_simulators(monkeypatch,
                          FakeResult(ipc=base.commit_width * 0.9),
                          FakeResult(ipc=base.commit_width * 1.5),
                          FakeResult(ipc=base.commit_width * 1.5))
        assert check_ipc_bounds(trace, base).passed

    def test_fail_on_superluminal_ipc(self, monkeypatch, trace, base):
        _patch_simulators(monkeypatch,
                          FakeResult(ipc=base.commit_width + 1),
                          FakeResult(ipc=1.0), FakeResult(ipc=1.0))
        result = check_ipc_bounds(trace, base)
        assert not result.passed
        assert "single" in result.detail

    def test_fail_on_nonpositive_ipc(self, monkeypatch, trace, base):
        _patch_simulators(monkeypatch, FakeResult(ipc=1.0),
                          FakeResult(ipc=0.0), FakeResult(ipc=1.0))
        assert not check_ipc_bounds(trace, base).passed


class TestDeterminism:

    def test_pass(self, monkeypatch, trace, base):
        _patch_simulators(monkeypatch, FakeResult(cycles=10),
                          FakeResult(cycles=20), FakeResult(cycles=30))
        assert check_determinism(trace, base).passed

    def test_fail_on_run_to_run_drift(self, monkeypatch, trace, base):
        counter = iter(range(100))

        _patch_simulators(
            monkeypatch,
            lambda: FakeResult(cycles=1000 + next(counter)),
            FakeResult(cycles=20), FakeResult(cycles=30))
        result = check_determinism(trace, base)
        assert not result.passed
        assert "single" in result.detail


class TestNoCatastrophicSlowdown:

    def test_pass(self, monkeypatch, trace, base):
        _patch_simulators(monkeypatch, FakeResult(cycles=1000),
                          FakeResult(cycles=1500),
                          FakeResult(cycles=1800))
        assert check_more_resources_never_catastrophic(
            trace, base).passed

    def test_fail_on_blowup(self, monkeypatch, trace, base):
        _patch_simulators(monkeypatch, FakeResult(cycles=1000),
                          FakeResult(cycles=1500),
                          FakeResult(cycles=2500))
        result = check_more_resources_never_catastrophic(trace, base)
        assert not result.passed
        assert "worst_ratio" in result.detail


class TestWatchdogLivelock:

    def _arm(self, monkeypatch, behaviour):
        class Stub:
            def __init__(self, base, fgstp=None, watchdog_window=None,
                         **kwargs):
                pass

            def run(self, trace, **kwargs):
                return behaviour()

        monkeypatch.setattr(validation, "FgStpMachine", Stub)
        monkeypatch.setattr(validation, "apply_chaos",
                            lambda machine, spec, **kw: None)

    def test_pass_on_prompt_hang(self, monkeypatch, trace, base):
        def hang():
            raise SimulationHang("stuck", machine="fgstp", cycles=4000,
                                 instructions=10, detail="intercore")

        self._arm(monkeypatch, hang)
        result = check_watchdog_fires_on_injected_livelock(trace, base)
        assert result.passed
        assert "4000" in result.detail

    def test_fail_on_late_hang(self, monkeypatch, trace, base):
        def hang():
            raise SimulationHang("stuck", cycles=50_000)

        self._arm(monkeypatch, hang)
        assert not check_watchdog_fires_on_injected_livelock(
            trace, base).passed

    def test_fail_on_wrong_failure_class(self, monkeypatch, trace,
                                         base):
        def wrong():
            raise SimulationError("unrelated", detail="oops")

        self._arm(monkeypatch, wrong)
        result = check_watchdog_fires_on_injected_livelock(trace, base)
        assert not result.passed
        assert "unexpected failure class" in result.detail

    def test_fail_when_the_run_survives(self, monkeypatch, trace,
                                        base):
        self._arm(monkeypatch, lambda: FakeResult())
        result = check_watchdog_fires_on_injected_livelock(trace, base)
        assert not result.passed
        assert "completed despite" in result.detail


class TestValidateAll:

    def test_crashing_check_becomes_a_failed_result_with_dump(
            self, monkeypatch, tmp_path):
        def boom(trace, base):
            raise SimulationError("machine exploded", machine="fgstp",
                                  cycles=123, detail="drain")

        boom.__name__ = "check_boom"
        monkeypatch.setattr(validation, "CHECKS", [boom])
        results = validate_all("gcc", length=64,
                               crash_dir=tmp_path)
        (result,) = results.values()
        assert not result.passed
        assert "error:drain" in result.detail
        assert "crash dump" in result.detail
        dumps = list(tmp_path.glob("*.json"))
        assert dumps
        payload = json.loads(dumps[0].read_text())
        assert payload["failure_class"] == "error:drain"
        assert payload["context"]["check"] == "check_boom"

    def test_crash_dump_replays_on_the_failing_machine(
            self, monkeypatch, tmp_path):
        from repro.integrity.minimize import (replay_run_fn,
                                              trace_from_context)

        def hang(trace, base):
            raise SimulationHang("single core wedged", machine="single")

        hang.__name__ = "check_hang"
        monkeypatch.setattr(validation, "CHECKS", [hang])
        validate_all("gcc", length=64, crash_dir=tmp_path)
        (dump,) = tmp_path.glob("*.json")
        context = json.loads(dump.read_text())["context"]
        assert (context["machine"], context["warmup"]) == ("single", 0)
        replayed = replay_run_fn(context)(trace_from_context(context))
        assert replayed.machine == "single"

    def test_crashing_check_without_dump_dir(self, monkeypatch):
        def boom(trace, base):
            raise SimulationError("machine exploded")

        boom.__name__ = "check_boom"
        monkeypatch.setattr(validation, "CHECKS", [boom])
        results = validate_all("gcc", length=64)
        (result,) = results.values()
        assert not result.passed
        assert "crash dump" not in result.detail

    def test_battery_is_complete(self):
        names = {check.__name__ for check in CHECKS}
        assert names == {
            "check_all_machines_commit_identical_work",
            "check_fgstp_single_policy_matches_single_core",
            "check_ipc_bounds",
            "check_determinism",
            "check_more_resources_never_catastrophic",
            "check_watchdog_fires_on_injected_livelock",
        }
