"""Machines run the caller's measured records in place.

Every machine numbers a measured record by its position in the measured
stream, so a run neither copies nor re-sequences the trace: each retired
uop carries the caller's own record, and no :class:`TraceRecord` is
built while a machine runs.
"""

import pytest

from repro.fgstp.params import FgStpParams
from repro.harness.runners import MACHINES, build_machine
from repro.trace.record import TraceRecord
from repro.uarch.params import small_core_config
from repro.workloads.generator import generate_trace

LENGTH, WARMUP = 1800, 300
#: Small adaptive regions, so the run crosses several region boundaries.
OVERRIDES = {"fgstp-adaptive": {"sample_instructions": 200,
                                "region_instructions": 500}}


def _build(machine, **options):
    return build_machine(machine, small_core_config(), FgStpParams(),
                         **OVERRIDES.get(machine, {}), **options)


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
