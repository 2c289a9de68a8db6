"""The partitioner makes exactly the frozen reference's decisions.

``reference_partitioner.py`` holds the plain three-pass partitioner
with register and memory writer maps, an undo journal, ``rewind`` and
``retire``.  The partitioner under test reads producers from the
trace's dependence index instead and records each seq's cores in a
mask.  Hypothesis drives both through the same call sequence, the way
the Fg-STP machine does: batches of generated trace records under an
advancing commit frontier, interleaved with squashes (the reference
rewinds, then both re-partition the squashed records), retirement of
the reference's maps and memory-pair training.  After every call the
two must agree on every assignment field (``comm_srcs`` in order, since
it fixes tag creation and queue send order), the running load floats,
the statistics and the steering tables; and every reference writer
entry at or above the commit frontier must carry the cores the mask
holds for its seq.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fgstp.params import FgStpParams
from repro.fgstp.partitioner import Partitioner
from repro.workloads.generator import generate_trace

from .reference_partitioner import Partitioner as ReferencePartitioner
from .test_partition_properties import NAMES


#: Calls per example; enough to cross several retire/rewind cycles
#: while keeping hypothesis's input buffer from overrunning.
MAX_CALLS = 80

#: One comparison's trace and partitioner configuration.
CASES = st.tuples(st.sampled_from(NAMES),
                  st.integers(min_value=40, max_value=400),
                  st.integers(min_value=1, max_value=10 ** 6),
                  st.sampled_from([4, 16, 64]),
                  st.booleans())


def _assignments(assignments):
    return [(a.seq, a.cores, list(a.comm_srcs), a.mem_dep, a.stolen,
             a.replicated) for a in assignments]


def _state(partitioner):
    return {
        "load": list(partitioner._load),
        "stats": partitioner.stats.as_dict(),
        "mem_pc_core": dict(partitioner._mem_pc_core),
        "store_pc_core": dict(partitioner._store_pc_core),
        "pair_map": {pc: dict(partners)
                     for pc, partners in partitioner._pair_map.items()},
    }


def _assert_same(fast, reference, committed):
    # Floats compared exactly: the running load must be bit-identical.
    assert _state(fast) == _state(reference)
    for writers in (reference._reg_writer, reference._mem_writer):
        for entry in writers.values():
            if entry.seq >= committed:
                assert fast._mask[entry.seq] \
                    == sum(1 << core for core in entry.cores)


def _compare(case, data):
    name, length, seed, batch_size, replication = case
    trace = generate_trace(name, length, seed)
    params = FgStpParams(batch_size=batch_size, window_size=512,
                         replication=replication)
    fast, reference = Partitioner(params), ReferencePartitioner(params)
    fast.track(trace)
    load_pcs = sorted({r.pc for r in trace if r.is_load}) or [0]
    store_pcs = sorted({r.pc for r in trace if r.is_store}) or [1]
    cursor = committed = 0
    for _ in range(MAX_CALLS):
        if cursor >= len(trace):
            break
        action = data.draw(st.sampled_from(
            ["partition"] * 6 + ["rewind", "retire", "learn_pair"]))
        if action == "partition":
            size = data.draw(st.integers(min_value=1, max_value=batch_size))
            batch = trace[cursor:cursor + size]
            got = fast.partition(batch, cursor, committed_seq=committed)
            want = reference.partition(batch, committed_seq=committed)
            assert _assignments(got) == _assignments(want)
            cursor += len(batch)
            committed = data.draw(
                st.integers(min_value=committed, max_value=cursor))
        elif action == "rewind":
            # A squash: fetch again from some in-flight seq.  Only the
            # reference has writer maps to undo.
            squash = data.draw(st.integers(min_value=committed,
                                           max_value=cursor))
            reference.rewind(squash)
            cursor = squash
        elif action == "retire":
            reference.retire(committed)
        else:
            load_pc = data.draw(st.sampled_from(load_pcs))
            store_pc = data.draw(st.sampled_from(store_pcs))
            weight = data.draw(st.sampled_from([1, 4]))
            fast.learn_pair(load_pc, store_pc, weight=weight)
            reference.learn_pair(load_pc, store_pc, weight=weight)
        _assert_same(fast, reference, committed)


@settings(max_examples=60, deadline=None)
@given(case=CASES, data=st.data())
def test_matches_reference_partitioner(case, data):
    _compare(case, data)


@pytest.mark.fuzz
@settings(max_examples=1500, deadline=None)
@given(case=CASES, data=st.data())
def test_matches_reference_partitioner_at_fuzz_scale(case, data):
    """The same comparison far beyond tier-1's examples (nightly)."""
    _compare(case, data)
