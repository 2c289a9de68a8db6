"""Records share their immutable field values, from every producer.

A sweep process holds every trace it simulates for its whole life, so a
producer that starts allocating a ``seq`` int or a ``srcs`` tuple per
record again costs about 90 bytes a record.  These tests pin the sharing
itself (one object per value) and its price (bytes per record under
``tracemalloc``).
"""

import gc
import io
import sys
import threading
import tracemalloc

import pytest

from repro.trace.io import read_trace, write_trace
from repro.trace.record import SOURCES, positions
from repro.workloads.generator import generate_trace
from repro.workloads.suite import suite_names

LENGTH = 1500
SEED = 3
#: Bytes per record a compact trace stays under (gcc, mcf and milc cost
#: 119-126 generated and 124-128 read back on CPython 3.11; separately
#: allocated records cost about 209 generated and 233 read back).
MAX_BYTES_PER_RECORD = 140


def _round_trip(trace):
    buffer = io.BytesIO()
    write_trace(trace, buffer)
    buffer.seek(0)
    return read_trace(buffer)


def _assert_shared(trace):
    table = positions(len(trace))
    assert all(record.seq is table[index]
               for index, record in enumerate(trace))
    assert all(SOURCES[record.srcs] is record.srcs for record in trace)


@pytest.mark.parametrize("name", suite_names("all"))
def test_generated_and_read_back_records_share_their_values(name):
    trace = generate_trace(name, LENGTH, SEED)
    _assert_shared(trace)
    back = _round_trip(trace)
    assert back == trace
    _assert_shared(back)
    # A target or pc value is one int within the read-back trace.
    pcs = {}
    for record in back:
        assert pcs.setdefault(record.pc, record.pc) is record.pc
        if record.target is not None:
            assert pcs.setdefault(record.target, record.target) \
                is record.target


def test_interpreter_and_reseq_records_take_seq_from_positions():
    from repro.uarch.warmup import reseq
    from repro.workloads.kernels import run_kernel

    trace = run_kernel("vector_sum").trace
    table = positions(len(trace))
    assert all(record.seq is table[index]
               for index, record in enumerate(trace))
    suffix = reseq(trace[300:])
    assert all(record.seq is table[index]
               for index, record in enumerate(suffix))


def test_positions_grow_densely_under_threads():
    """Threads growing the table at once must not append a range twice."""
    start = len(positions(0))

    def grow(first):
        for step in range(first, 4000, 4):
            positions(start + step)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(first,))
                   for first in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    table = positions(0)
    assert len(table) == start + 3999
    assert table == list(range(len(table)))


def _traced_bytes(produce):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = produce()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["gcc", "mcf", "milc"])
def test_a_trace_costs_at_most_140_bytes_per_record(name):
    """Measured once the process-wide tables hold this trace's values
    (the first trace of a length grows the positions table by about 36
    bytes a position), so it is what each further trace costs."""
    length = 8000
    trace = generate_trace(name, length, SEED)
    again, generated = _traced_bytes(
        lambda: generate_trace(name, length, SEED))
    assert again == trace
    assert generated / length <= MAX_BYTES_PER_RECORD

    buffer = io.BytesIO()
    write_trace(trace, buffer)
    data = buffer.getvalue()
    back, read = _traced_bytes(lambda: read_trace(io.BytesIO(data)))
    assert back == trace
    assert read / length <= MAX_BYTES_PER_RECORD
