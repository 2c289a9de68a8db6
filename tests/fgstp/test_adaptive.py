"""Tests for adaptive (coarse-grain reconfiguring) Fg-STP."""

from unittest import mock

import pytest

from repro.fgstp import adaptive, partitioner
from repro.fgstp.adaptive import AdaptiveFgStpMachine, simulate_fgstp_adaptive
from repro.trace.record import TraceRecord
from repro.uarch.params import small_core_config
from repro.uarch.pipeline.machine import simulate_single_core
from repro.workloads.generator import generate_trace


def test_each_region_is_indexed_once():
    """Both Fg-STP machines of a region, its probe and the region run
    that resumes the probe's snapshot, partition with one dependence
    index of its measured records.  Three regions of 400, 400 and 200
    records build three indexes, not the five (300, 400, 300, 400,
    200) of indexing each probe's sample and then its region again."""
    lengths = []
    original = partitioner.dependences

    def spy(trace):
        lengths.append(len(trace))
        return original(trace)

    machine = AdaptiveFgStpMachine(small_core_config(),
                                   sample_instructions=300,
                                   region_instructions=400)
    with mock.patch.object(partitioner, "dependences", spy), \
            mock.patch.object(adaptive, "dependences", spy):
        result = machine.run(generate_trace("gcc", 1500), workload="gcc",
                             warmup=500)
    assert result.extra["modes"][:2] == ["fgstp", "fgstp"]
    assert lengths == [400, 400, 200]


def test_validation():
    base = small_core_config()
    with pytest.raises(ValueError):
        AdaptiveFgStpMachine(base, sample_instructions=0)
    with pytest.raises(ValueError):
        AdaptiveFgStpMachine(base, sample_instructions=100,
                             region_instructions=50)


def test_commits_everything():
    trace = generate_trace("gcc", 5000)
    machine = AdaptiveFgStpMachine(small_core_config(),
                                   sample_instructions=500,
                                   region_instructions=2000)
    result = machine.run(trace, workload="gcc")
    assert result.instructions == 5000
    assert result.machine == "fgstp-adaptive"
    assert result.extra["fgstp_regions"] + result.extra["single_regions"] \
        == len(result.extra["modes"])


@pytest.mark.parametrize("warmup", (0, 300))
def test_regions_are_slices_of_the_trace_records(warmup):
    """Each region is a slice of the trace's own records, its warm-up
    prefix then its measured records, seqs as the trace holds them
    (shifted here): the region machines number records by position."""
    trace = [TraceRecord(r.seq + 5, r.pc, r.op_class, r.dst, r.srcs,
                         r.mem_addr, r.mem_size, r.taken, r.target)
             for r in generate_trace("gcc", 2500)]
    machine = AdaptiveFgStpMachine(small_core_config(),
                                   sample_instructions=400,
                                   region_instructions=1000)
    regions = machine._regions(trace, warmup)
    assert len(regions) >= 3
    start = warmup
    for records, region_warmup in regions:
        lead = start - region_warmup
        assert len(records) > region_warmup
        assert all(a is b for a, b in zip(records, trace[lead:]))
        start = lead + len(records)
    assert start == len(trace)


def test_never_much_worse_than_single_core():
    trace = generate_trace("mcf", 6000)
    base = small_core_config()
    single = simulate_single_core(trace, base)
    adaptive = simulate_fgstp_adaptive(trace, base)
    # Mode sampling bounds the downside (small slack for sampling and
    # reconfiguration costs).
    assert adaptive.cycles <= 1.2 * single.cycles


def test_modes_recorded():
    trace = generate_trace("hmmer", 4000)
    machine = AdaptiveFgStpMachine(small_core_config(),
                                   sample_instructions=400,
                                   region_instructions=1500)
    result = machine.run(trace)
    assert all(mode in ("single", "fgstp")
               for mode in result.extra["modes"])
    assert len(result.extra["modes"]) >= 2


def test_switch_penalty_counted():
    trace = generate_trace("gcc", 4000)
    machine = AdaptiveFgStpMachine(small_core_config(),
                                   sample_instructions=400,
                                   region_instructions=1200,
                                   reconfigure_penalty=100)
    result = machine.run(trace)
    assert result.extra["switches"] >= 0
