"""Machines run the caller's measured records in place.

Every machine numbers a measured record by its position in the measured
stream, so a run neither copies nor re-sequences the trace: each retired
uop carries the caller's own record, and no :class:`TraceRecord` is
built while a machine runs.  A run resumed from a checkpoint retires the
caller's records too, not the unpickled copies its payload holds.
"""

from types import SimpleNamespace
from unittest import mock

import pytest

from repro.fgstp.adaptive import AdaptiveFgStpMachine
from repro.fgstp.params import FgStpParams
from repro.harness.runners import MACHINES, build_machine
from repro.trace.record import TraceRecord
from repro.uarch.params import small_core_config
from repro.uarch.pipeline.machine import MachineShell
from repro.workloads.generator import generate_trace

LENGTH, WARMUP = 1800, 300
#: Small adaptive regions, so the run crosses several region boundaries.
OVERRIDES = {"fgstp-adaptive": {"sample_instructions": 200,
                                "region_instructions": 500}}


def _build(machine, **options):
    options = {**OVERRIDES.get(machine, {}), **options}
    return build_machine(machine, small_core_config(), FgStpParams(),
                         **options)


@pytest.mark.parametrize("machine", MACHINES)
def test_retired_uops_carry_the_callers_records(machine):
    trace = generate_trace("gcc", LENGTH, 3)
    retired = []
    result = _build(machine, commit_hook=lambda uop, cycle: retired.append(
        (uop.seq, uop.record))).run(trace, workload="gcc", warmup=WARMUP)
    assert [seq for seq, _ in retired] == list(range(LENGTH - WARMUP))
    assert all(record is trace[WARMUP + seq] for seq, record in retired)
    if machine == "fgstp-adaptive":
        assert len(result.extra["modes"]) >= 3


@pytest.mark.parametrize("machine", MACHINES)
def test_no_trace_record_is_built_during_a_run(machine, monkeypatch):
    trace = generate_trace("gcc", LENGTH, 3)
    model = _build(machine)
    built = []
    construct = TraceRecord.__init__

    def spy(record, *args, **kwargs):
        built.append(args)
        construct(record, *args, **kwargs)

    monkeypatch.setattr(TraceRecord, "__init__", spy)
    result = model.run(trace, workload="gcc", warmup=WARMUP)
    assert result.instructions == LENGTH - WARMUP
    assert built == []


@pytest.mark.parametrize("machine", ("single", "corefusion", "fgstp"))
def test_a_resumed_run_retires_the_callers_records(machine):
    trace = generate_trace("gcc", LENGTH, 3)
    saved = []
    sink = SimpleNamespace(
        save=lambda key, checkpoint: saved.append(checkpoint))
    _build(machine, checkpoint_interval=400, checkpoint_sink=sink) \
        .run(trace, workload="gcc", warmup=WARMUP)
    checkpoint = saved[1]
    retired = []
    _build(machine, commit_hook=lambda uop, cycle: retired.append(
        (uop.seq, uop.record))).run(trace, workload="gcc", warmup=WARMUP,
                                    resume_from=checkpoint)
    assert [seq for seq, _ in retired] \
        == list(range(checkpoint.committed, LENGTH - WARMUP))
    assert all(record is trace[WARMUP + seq] for seq, record in retired)


def test_adaptive_region_runs_resume_on_the_callers_records():
    """An unobserved adaptive run resumes each region from its winning
    probe's snapshot, taken with work in flight when the sample exceeds
    the machine's lookahead (520 records for the small Fg-STP pair);
    every uop the region runs retire must carry the caller's record."""
    trace = generate_trace("gcc", 3300, 3)
    own = {id(record) for record in trace}
    strays = []
    resumed = []

    def machine_spy(self, mode, **observers):
        # A hook on the region machines leaves the adaptive machine
        # unobserved, so its probes snapshot past commit 0.
        def check(uop, cycle):
            if id(uop.record) not in own:
                strays.append(uop)
        return original_machine(self, mode, commit_hook=check)

    def adopt_spy(self, state, measured):
        resumed.append(state["committed"])
        return original_adopt(self, state, measured)

    original_machine = AdaptiveFgStpMachine._machine
    original_adopt = MachineShell._adopt_state
    with mock.patch.object(AdaptiveFgStpMachine, "_machine", machine_spy), \
            mock.patch.object(MachineShell, "_adopt_state", adopt_spy):
        result = _build("fgstp-adaptive", sample_instructions=800,
                        region_instructions=1000) \
            .run(trace, workload="gcc", warmup=WARMUP)
    assert result.instructions == 3000
    assert len(resumed) == 3 and min(resumed) > 0
    assert strays == []
