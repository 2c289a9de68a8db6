"""The optimised partitioner makes exactly the reference's decisions.

``reference_partitioner.py`` holds the plain three-pass partitioner the
fast one replaced.  Hypothesis drives both through the same call
sequence, the way the Fg-STP machine does: batches of generated trace
records under an advancing commit frontier, interleaved with squash
rewinds (which re-partition the squashed records), retirement and
memory-pair training.  After every call the two must agree on every
assignment field (``comm_srcs`` in order, since it fixes tag creation
and queue send order), the running load floats, both writer maps, the
undo journal and the statistics.
"""

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


def _assignments(assignments):
    return [(a.seq, a.cores, list(a.comm_srcs), a.mem_dep, a.stolen,
             a.replicated) for a in assignments]


def _entry(entry):
    return None if entry is None else (entry.seq, set(entry.cores), entry.pc)


def _state(partitioner):
    return {
        "load": list(partitioner._load),
        "reg": {key: _entry(entry)
                for key, entry in partitioner._reg_writer.items()},
        "mem": {key: _entry(entry)
                for key, entry in partitioner._mem_writer.items()},
        "journal": [(kind, seq, key, _entry(previous))
                    for kind, seq, key, previous in partitioner._journal],
        "stats": partitioner.stats.as_dict(),
        "mem_pc_core": dict(partitioner._mem_pc_core),
        "store_pc_core": dict(partitioner._store_pc_core),
        "pair_map": {pc: dict(partners)
                     for pc, partners in partitioner._pair_map.items()},
    }


def _assert_same(fast, reference):
    fast_state, reference_state = _state(fast), _state(reference)
    # Floats compared exactly: the running load must be bit-identical.
    assert fast_state == reference_state


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(NAMES),
       length=st.integers(min_value=40, max_value=400),
       seed=st.integers(min_value=1, max_value=10 ** 6),
       batch_size=st.sampled_from([4, 16, 64]),
       replication=st.booleans(),
       data=st.data())
def test_matches_reference_partitioner(name, length, seed, batch_size,
                                       replication, data):
    trace = generate_trace(name, length, seed)
    params = FgStpParams(batch_size=batch_size, window_size=512,
                         replication=replication)
    fast, reference = Partitioner(params), ReferencePartitioner(params)
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
            got = fast.partition(batch, committed_seq=committed)
            want = reference.partition(batch, committed_seq=committed)
            assert _assignments(got) == _assignments(want)
            cursor += len(batch)
            committed = data.draw(
                st.integers(min_value=committed, max_value=cursor))
        elif action == "rewind":
            # A squash: undo from some in-flight seq and fetch it again.
            squash = data.draw(st.integers(min_value=committed,
                                           max_value=cursor))
            fast.rewind(squash)
            reference.rewind(squash)
            cursor = squash
        elif action == "retire":
            fast.retire(committed)
            reference.retire(committed)
        else:
            load_pc = data.draw(st.sampled_from(load_pcs))
            store_pc = data.draw(st.sampled_from(store_pcs))
            weight = data.draw(st.sampled_from([1, 4]))
            fast.learn_pair(load_pc, store_pc, weight=weight)
            reference.learn_pair(load_pc, store_pc, weight=weight)
        _assert_same(fast, reference)
