"""Unit tests for every relation of the validation battery: pass AND fail.

The integration battery (``test_validation.py``) proves the relations
hold on real machines; these tests judge canned outcomes, so each
relation's failure branch — the branch a healthy codebase never
exercises end to end — runs too.
"""

import json
from collections import Counter

import pytest

import repro.validation as validation
from repro.fgstp.orchestrator import FgStpMachine
from repro.fgstp.params import FgStpParams
from repro.integrity.errors import SimulationError, SimulationHang
from repro.uarch.pipeline.machine import MachineShell
from repro.validation import (DEFAULT_TOLERANCE, LIVELOCK_RUN, RELATIONS,
                              Setting, battery_runs, judge, validate_all)

#: Instructions in the canned trace.
LENGTH = 100


class FakeResult:
    def __init__(self, cycles=1000, instructions=LENGTH, ipc=1.0):
        self.cycles = cycles
        self.instructions = instructions
        self.ipc = ipc


def _prompt_hang():
    return SimulationHang("stuck", machine="fgstp", cycles=4000,
                          instructions=10, detail="intercore")


def judged(base, changes=None, tolerance=DEFAULT_TOLERANCE):
    """Judge canned outcomes on which every relation holds, with
    *changes* (run name -> outcome) applied."""
    outcomes = {name: FakeResult() for name in battery_runs(base)}
    outcomes[LIVELOCK_RUN] = _prompt_hang()
    outcomes.update(changes or {})
    return judge(outcomes, Setting(base, LENGTH, tolerance))


@pytest.fixture
def base(small_config):
    return small_config


def test_healthy_outcomes_pass_every_relation(base):
    failures = [str(r) for r in judged(base).values() if not r.passed]
    assert not failures, failures


class TestIdenticalCommittedWork:

    def test_pass(self, base):
        assert judged(base)["identical_committed_work"].passed

    def test_fail_on_divergent_counts(self, base):
        result = judged(base, {"fgstp": FakeResult(instructions=99)})[
            "identical_committed_work"]
        assert not result.passed
        assert "99" in result.detail

    def test_fail_when_counts_agree_but_miss_the_trace(self, base):
        short = {machine: FakeResult(instructions=50)
                 for machine in ("single", "corefusion", "fgstp")}
        assert not judged(base, short)["identical_committed_work"].passed


class TestSinglePolicyEquivalence:

    @staticmethod
    def _judge(base, single, degenerate):
        return judged(base, {
            "single": FakeResult(cycles=single),
            "fgstp/policy-single": FakeResult(cycles=degenerate),
        })["fgstp_single_policy_equivalence"]

    def test_pass_within_tolerance(self, base):
        for degenerate in (1050, 1100, 900):
            assert self._judge(base, 1000, degenerate).passed, degenerate

    def test_fail_beyond_tolerance(self, base):
        for degenerate in (1500, 1101, 899):
            result = self._judge(base, 1000, degenerate)
            assert not result.passed, degenerate
            assert "delta" in result.detail


class TestIpcBounds:

    def test_pass(self, base):
        width = base.commit_width
        result = judged(base, {
            "single": FakeResult(ipc=width),
            "corefusion": FakeResult(ipc=2 * width),
            "fgstp": FakeResult(ipc=1.5 * width),
        })["ipc_bounds"]
        assert result.passed

    def test_fail_on_superluminal_ipc(self, base):
        for machine, bound in (("single", 1), ("corefusion", 2),
                               ("fgstp", 2)):
            ipc = bound * base.commit_width + 0.1
            result = judged(base, {machine: FakeResult(ipc=ipc)})[
                "ipc_bounds"]
            assert not result.passed, machine
            assert machine in result.detail

    def test_fail_on_nonpositive_ipc(self, base):
        assert not judged(base, {"corefusion": FakeResult(ipc=0.0)})[
            "ipc_bounds"].passed


class TestDeterminism:

    def test_pass(self, base):
        outcomes = {}
        for cycles, machine in enumerate(("single", "corefusion",
                                          "fgstp"), start=1):
            outcomes[machine] = FakeResult(cycles=10 * cycles)
            outcomes[f"{machine}/rerun"] = FakeResult(cycles=10 * cycles)
        assert judged(base, outcomes)["determinism"].passed

    def test_fail_on_run_to_run_drift(self, base):
        result = judged(base, {"single/rerun": FakeResult(cycles=1001)})[
            "determinism"]
        assert not result.passed
        assert "single" in result.detail


class TestNoCatastrophicSlowdown:

    def test_pass(self, base):
        assert judged(base, {
            "corefusion": FakeResult(cycles=1500),
            "fgstp": FakeResult(cycles=1999),
        })["no_catastrophic_slowdown"].passed

    def test_fail_on_blowup(self, base):
        for machine in ("corefusion", "fgstp"):
            result = judged(base, {machine: FakeResult(cycles=2000)})[
                "no_catastrophic_slowdown"]
            assert not result.passed, machine
            assert "worst_ratio" in result.detail


class TestWatchdogLivelock:

    def test_pass_on_prompt_hang(self, base):
        result = judged(base)["watchdog_livelock_detection"]
        assert result.passed
        assert "4000" in result.detail

    def test_fail_on_late_hang(self, base):
        late = SimulationHang("stuck", cycles=10_000)
        assert not judged(base, {LIVELOCK_RUN: late})[
            "watchdog_livelock_detection"].passed

    def test_fail_on_wrong_failure_class(self, base):
        wrong = SimulationError("unrelated", detail="oops")
        result = judged(base, {LIVELOCK_RUN: wrong})[
            "watchdog_livelock_detection"]
        assert not result.passed
        assert "unexpected failure class" in result.detail

    def test_fail_when_the_run_survives(self, base):
        result = judged(base, {LIVELOCK_RUN: FakeResult()})[
            "watchdog_livelock_detection"]
        assert not result.passed
        assert "completed despite" in result.detail


@pytest.mark.parametrize("machine", ["single", "fgstp"])
class TestWindowScaling:

    @staticmethod
    def _judge(base, machine, small, big, tolerance=DEFAULT_TOLERANCE):
        return judged(base, {
            machine: FakeResult(cycles=small),
            f"{machine}/window-x2": FakeResult(cycles=big),
        }, tolerance)[f"window-scaling-{machine}"]

    @pytest.mark.parametrize("big", [800, 1000, 1020])
    def test_pass_within_slack(self, base, machine, big):
        assert self._judge(base, machine, 1000, big).passed

    def test_fail_when_the_larger_window_is_slower(self, base, machine):
        result = self._judge(base, machine, 1000, 1021)
        assert not result.passed
        assert "limit 1020" in result.detail

    def test_slack_is_the_tolerance(self, base, machine):
        assert self._judge(base, machine, 1000, 1040, tolerance=0.05).passed


class TestLatencyMonotonic:

    @staticmethod
    def _judge(base, cycles, tolerance=DEFAULT_TOLERANCE):
        return judged(base, {
            f"fgstp/latency-{latency}": FakeResult(cycles=count)
            for latency, count in zip((1, 3, 6), cycles)
        }, tolerance)["intercore-latency-monotonic"]

    @pytest.mark.parametrize("cycles", [
        (1000, 1010, 1030), (1000, 980, 1000), (1000, 1000, 1000)])
    def test_pass_when_latency_never_helps(self, base, cycles):
        assert self._judge(base, cycles).passed

    @pytest.mark.parametrize("cycles,step", [
        ((1000, 979, 1000), "1->3"), ((1000, 1000, 900), "3->6")])
    def test_fail_when_latency_speeds_fgstp_up(self, base, cycles, step):
        result = self._judge(base, cycles)
        assert not result.passed
        assert f"violations: {step}" in result.detail

    def test_slack_is_the_tolerance(self, base):
        assert self._judge(base, (1000, 960, 960), tolerance=0.05).passed


def _failing_runs(monkeypatch, failures):
    """Replace the battery's simulations by canned results, except the
    runs in *failures* (run name -> error), which raise."""

    def run(machine, trace, base, context=None, **options):
        error = failures.get(context["run"])
        if error is not None:
            raise error
        if context["run"] == LIVELOCK_RUN:
            raise _prompt_hang()
        return FakeResult(instructions=len(trace))

    monkeypatch.setattr(validation, "run_trace_under_oracle", run)


def _drain():
    return SimulationError("machine exploded", machine="fgstp",
                           cycles=123, detail="drain")


class TestValidateAll:

    def test_crashing_check_becomes_a_failed_result_with_dump(
            self, monkeypatch, tmp_path):
        _failing_runs(monkeypatch, {"fgstp": _drain()})
        results = validate_all("gcc", length=64, crash_dir=tmp_path)
        assert list(results) == list(RELATIONS)
        failed = {name for name, result in results.items()
                  if not result.passed}
        assert failed == {name for name, (reads, _) in RELATIONS.items()
                          if "fgstp" in reads}
        for name in failed:
            assert "fgstp: error:drain" in results[name].detail
            assert "crash dump" in results[name].detail
        (dump,) = tmp_path.glob("*.json")
        payload = json.loads(dump.read_text())
        assert payload["failure_class"] == "error:drain"
        context = payload["context"]
        assert (context["run"], context["machine"], context["oracle"]) \
            == ("fgstp", "fgstp", True)

    def test_one_dump_per_failed_run(self, monkeypatch, tmp_path):
        _failing_runs(monkeypatch, {"fgstp/latency-3": _drain(),
                                    "single/window-x2": _drain()})
        results = validate_all("gcc", length=64, crash_dir=tmp_path)
        assert list(results) == list(RELATIONS)
        runs = sorted(json.loads(dump.read_text())["context"]["run"]
                      for dump in tmp_path.glob("*.json"))
        assert runs == ["fgstp/latency-3", "single/window-x2"]
        assert {name for name, result in results.items()
                if not result.passed} == {"intercore-latency-monotonic",
                                          "window-scaling-single"}

    @pytest.mark.parametrize("error,dumps", [
        (SimulationHang("late", cycles=50_000), 0), (_drain(), 1)],
        ids=["hang", "drain"])
    def test_only_an_unexpected_livelock_failure_dumps(
            self, monkeypatch, tmp_path, error, dumps):
        _failing_runs(monkeypatch, {LIVELOCK_RUN: error})
        results = validate_all("gcc", length=64, crash_dir=tmp_path)
        assert not results["watchdog_livelock_detection"].passed
        assert len(list(tmp_path.glob("*.json"))) == dumps

    def test_crash_dump_replays_on_the_failing_machine(
            self, monkeypatch, tmp_path, small_config):
        from repro.integrity.minimize import (replay_run_fn,
                                              trace_from_context)

        _failing_runs(monkeypatch, {"fgstp/policy-single": _drain()})
        validate_all("gcc", length=600, crash_dir=tmp_path)
        monkeypatch.undo()
        (dump,) = tmp_path.glob("*.json")
        context = json.loads(dump.read_text())["context"]
        assert (context["run"], context["warmup"]) \
            == ("fgstp/policy-single", 0)
        trace = trace_from_context(context)
        replayed = replay_run_fn(context)(trace)
        degenerate = FgStpMachine(small_config,
                                  FgStpParams(partition_latency=1),
                                  policy="single").run(trace)
        default = FgStpMachine(small_config).run(trace)
        assert default.cycles != degenerate.cycles
        assert replayed.cycles == degenerate.cycles

    def test_crashing_check_without_dump_dir(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        _failing_runs(monkeypatch, {"fgstp": _drain()})
        results = validate_all("gcc", length=64)
        assert not results["determinism"].passed
        assert "crash dump" not in results["determinism"].detail
        assert not list(tmp_path.rglob("*.json"))

    def test_battery_is_complete(self, small_config):
        assert set(RELATIONS) == {
            "identical_committed_work",
            "fgstp_single_policy_equivalence",
            "ipc_bounds",
            "determinism",
            "no_catastrophic_slowdown",
            "watchdog_livelock_detection",
            "window-scaling-single",
            "window-scaling-fgstp",
            "intercore-latency-monotonic",
        }
        read = {run for reads, _ in RELATIONS.values() for run in reads}
        assert read == set(battery_runs(small_config))

    def test_each_configuration_is_simulated_once(self, monkeypatch):
        calls = Counter()
        simulate = MachineShell._simulate

        def spy(self, trace, *args):
            calls[(type(self).__name__, self.checkpoint_params_key(),
                   self.watchdog.window, getattr(self, "_chaos_kinds", ()),
                   len(trace))] += 1
            return simulate(self, trace, *args)

        monkeypatch.setattr(MachineShell, "_simulate", spy)
        results = validate_all("gcc", length=600)
        assert all(result.passed for result in results.values())
        assert sum(calls.values()) == 13
        reruns = sorted(key[0] for key, count in calls.items()
                        if count == 2)
        assert reruns == ["CoreFusionMachine", "FgStpMachine",
                          "SingleCoreMachine"]
        assert set(calls.values()) == {1, 2}

