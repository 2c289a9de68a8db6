"""Unit tests for trace characterisation."""

import pytest

from repro.isa.opcodes import OpClass
from repro.trace.analysis import (
    dependence_distances,
    dependences,
    instruction_mix,
    memory_dependence_count,
    summarize,
)
from repro.trace.record import TraceRecord


def test_instruction_mix_fractions():
    trace = [
        TraceRecord(0, 0, OpClass.IALU, 1, ()),
        TraceRecord(1, 1, OpClass.IALU, 2, ()),
        TraceRecord(2, 2, OpClass.LOAD, 3, (1,), mem_addr=0, mem_size=8),
        TraceRecord(3, 3, OpClass.BRANCH, None, (1, 2), taken=False),
    ]
    mix = instruction_mix(trace)
    assert mix[OpClass.IALU] == pytest.approx(0.5)
    assert mix[OpClass.LOAD] == pytest.approx(0.25)
    assert mix[OpClass.BRANCH] == pytest.approx(0.25)


def test_instruction_mix_empty():
    assert instruction_mix([]) == {}


def test_dependence_distances():
    trace = [
        TraceRecord(0, 0, OpClass.IALU, 1, ()),      # writes r1
        TraceRecord(1, 1, OpClass.IALU, 2, (1,)),    # reads r1: distance 1
        TraceRecord(2, 2, OpClass.IALU, 3, (1, 2)),  # distances 2 and 1
        TraceRecord(3, 3, OpClass.IALU, 4, (9,)),    # live-in: skipped
    ]
    assert sorted(dependence_distances(trace)) == [1, 1, 2]


def test_dependences_index_producers_and_stores():
    trace = [
        TraceRecord(0, 10, OpClass.IALU, 1, (9,)),       # r9 live-in
        TraceRecord(1, 11, OpClass.STORE, None, (1, 1), mem_addr=64,
                    mem_size=8),
        TraceRecord(2, 12, OpClass.STORE, None, (1, 1), mem_addr=128,
                    mem_size=8),
        TraceRecord(3, 13, OpClass.IALU, 1, (1, 1)),     # repeated r1
        TraceRecord(4, 14, OpClass.LOAD, 2, (1,), mem_addr=64,
                    mem_size=8),
        TraceRecord(5, 15, OpClass.STORE, None, (2, 1), mem_addr=64,
                    mem_size=8),                          # younger store
        TraceRecord(6, 16, OpClass.LOAD, 3, (2, 9), mem_addr=256,
                    mem_size=8),
    ]
    producers, stores = dependences(trace)
    assert producers == [(-1,), (0, 0), (0, 0), (0, 0), (3,), (4, 3),
                         (4, -1)]
    # The load at 64 sees the older store there, not the one at 128
    # nor the younger store to its own address.
    assert stores == [None, None, None, None, (1, 11), None, None]


def test_memory_dependence_count_and_window():
    trace = [
        TraceRecord(0, 0, OpClass.STORE, None, (1, 2), mem_addr=64,
                    mem_size=8),
        TraceRecord(1, 1, OpClass.IALU, 1, ()),
        TraceRecord(2, 2, OpClass.LOAD, 3, (1,), mem_addr=64, mem_size=8),
        TraceRecord(3, 3, OpClass.LOAD, 4, (1,), mem_addr=128, mem_size=8),
    ]
    assert memory_dependence_count(trace) == 1
    assert memory_dependence_count(trace, window=1) == 0
    assert memory_dependence_count(trace, window=2) == 1


def test_summarize_fields():
    trace = [
        TraceRecord(0, 0, OpClass.IALU, 1, ()),
        TraceRecord(1, 1, OpClass.LOAD, 2, (1,), mem_addr=0, mem_size=8),
        TraceRecord(2, 2, OpClass.STORE, None, (1, 2), mem_addr=8,
                    mem_size=8),
        TraceRecord(3, 3, OpClass.BRANCH, None, (1, 2), taken=True,
                    target=0),
        TraceRecord(4, 0, OpClass.IALU, 1, (2,)),
    ]
    summary = summarize(trace)
    assert summary.instruction_count == 5
    assert summary.branch_fraction == pytest.approx(0.2)
    assert summary.taken_fraction == pytest.approx(1.0)
    assert summary.load_fraction == pytest.approx(0.2)
    assert summary.store_fraction == pytest.approx(0.2)
    assert summary.unique_pcs == 4
    assert summary.mean_dependence_distance > 0


def test_summarize_empty():
    summary = summarize([])
    assert summary.instruction_count == 0
    assert summary.branch_fraction == 0.0
