"""Property-based invariants of the Fg-STP partitioner.

Whatever trace shape the workload generator produces, a partition must
cover each dynamic instruction exactly once across the two cores — one
core mask per record, in order, executing on core 0, core 1, or
(replicated) both.  Hypothesis drives the generator over random
(benchmark, length, seed, batch-size) points so the invariants get
exercised far beyond the hand-written traces in ``test_partitioner.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fgstp.params import FgStpParams
from repro.fgstp.partitioner import Partitioner
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import ALL_NAMES

from .emission import per_record

#: A trace-shape-diverse subset (ILP-rich, streaming, mispredict-bound,
#: pointer-chasing, FP) — full-suite coverage without 20x the runtime.
NAMES = ["gcc", "mcf", "libquantum", "sjeng", "milc", "hmmer"]


@st.composite
def partition_cases(draw):
    name = draw(st.sampled_from(NAMES))
    length = draw(st.integers(min_value=20, max_value=400))
    seed = draw(st.integers(min_value=1, max_value=10 ** 6))
    batch = draw(st.sampled_from([4, 16, 64]))
    return name, length, seed, batch


@settings(max_examples=30, deadline=None)
@given(partition_cases())
def test_partition_covers_each_instruction_exactly_once(case):
    name, length, seed, batch_size = case
    trace = generate_trace(name, length, seed)
    partitioner = Partitioner(FgStpParams(batch_size=batch_size,
                                          window_size=512))
    partitioner.track(trace)
    assignments = []
    for start in range(0, len(trace), batch_size):
        assignments.extend(
            per_record(partitioner, trace[start:start + batch_size], start))

    # Exactly one assignment per dynamic instruction, in order.
    assert [assignment.seq for assignment in assignments] \
        == [record.seq for record in trace]
    for assignment in assignments:
        # ... executing on exactly one core, or both when replicated.
        assert set(assignment.cores) <= {0, 1}
        assert len(assignment.cores) in (1, 2)
        assert len(set(assignment.cores)) == len(assignment.cores)
        assert assignment.replicated == (len(assignment.cores) == 2)

    # The per-core tallies partition the stream: every instruction is
    # accounted for exactly once (replicas count once, by definition of
    # architectural work).
    stats = partitioner.stats
    assert stats.assigned == len(trace)
    assert stats.on_core[0] + stats.on_core[1] - stats.replicated \
        == len(trace)


@settings(max_examples=15, deadline=None)
@given(partition_cases())
def test_partition_without_replication_is_disjoint(case):
    name, length, seed, batch_size = case
    trace = generate_trace(name, length, seed)
    partitioner = Partitioner(FgStpParams(batch_size=batch_size,
                                          window_size=512,
                                          replication=False))
    partitioner.track(trace)
    for start in range(0, len(trace), batch_size):
        for assignment in per_record(
                partitioner, trace[start:start + batch_size], start):
            assert len(assignment.cores) == 1
            assert not assignment.replicated
    assert partitioner.stats.replicated == 0


def test_all_suite_profiles_partition_cleanly():
    """Every calibrated profile survives a small partition (smoke)."""
    for name in ALL_NAMES:
        trace = generate_trace(name, 64, seed=7)
        partitioner = Partitioner(FgStpParams(batch_size=16))
        partitioner.track(trace)
        assignments = per_record(partitioner, trace, 0)
        assert len(assignments) == len(trace)
