"""Property-based tests for the inter-core value queues.

Hypothesis drives randomised send schedules through
:class:`repro.fgstp.comm.InterCoreQueue` and checks the invariants the
orchestrator depends on:

* FIFO: values are satisfied in send order.
* Latency: nothing is delivered before ``send_cycle + latency``.
* Bandwidth: at most ``bandwidth`` deliveries per cycle.
* ``drop_squashed`` under contention only removes already-satisfied
  entries and never perturbs the live ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fgstp.comm import InterCoreQueue
from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.uarch.pipeline.uop import DISPATCHED, Uop, ValueTag


def make_tag(seq):
    tag = ValueTag(f"t{seq}")
    consumer = Uop(TraceRecord(seq, seq, OpClass.IALU, 1, (2,)), seq=seq,
                   uid=seq)
    consumer.state = DISPATCHED
    consumer.pending = 1
    tag.consumers.append(consumer)
    return tag


# A send schedule: per-send gaps from the previous send (0 = same
# cycle, so bursts exercise the bandwidth limit).
schedules = st.lists(st.integers(min_value=0, max_value=3),
                     min_size=1, max_size=30)


def run_queue(queue, gaps):
    """Send one tag per gap (cumulative cycles), then drain the queue.

    Returns:
        (tags, send_cycles, deliveries_per_cycle) where the last maps
        cycle -> number of tags satisfied that cycle.
    """
    tags = []
    send_cycles = []
    cycle = 0
    for seq, gap in enumerate(gaps):
        cycle += gap
        tag = make_tag(seq)
        queue.send(tag, cycle)
        tags.append(tag)
        send_cycles.append(cycle)
    per_cycle = {}
    deliver_cycle = 0
    while queue.pending():
        deliver_cycle += 1
        before = sum(1 for tag in tags if tag.ready_cycle is not None)
        queue.deliver(deliver_cycle)
        after = sum(1 for tag in tags if tag.ready_cycle is not None)
        per_cycle[deliver_cycle] = after - before
        assert deliver_cycle < send_cycles[-1] + queue.latency + len(tags) + 1, \
            "queue failed to drain"
    return tags, send_cycles, per_cycle


@settings(deadline=None, max_examples=200)
@given(gaps=schedules,
       latency=st.integers(min_value=1, max_value=8),
       bandwidth=st.integers(min_value=1, max_value=4))
def test_fifo_latency_and_bandwidth(gaps, latency, bandwidth):
    queue = InterCoreQueue(latency=latency, bandwidth=bandwidth)
    tags, send_cycles, per_cycle = run_queue(queue, gaps)

    # Everything was delivered exactly once.
    assert all(tag.ready_cycle is not None for tag in tags)
    assert queue.deliveries == len(tags)

    # Latency: never before send + latency.
    for tag, sent in zip(tags, send_cycles):
        assert tag.ready_cycle >= sent + latency

    # FIFO: ready cycles are non-decreasing in send order.
    ready = [tag.ready_cycle for tag in tags]
    assert ready == sorted(ready)

    # Bandwidth: per-cycle deliveries never exceed the limit.
    assert all(count <= bandwidth for count in per_cycle.values())

    # Ledger: every cycle that left due entries undelivered was counted
    # as mouth-blocked, and only those.
    assert queue.mouth_blocked_cycles <= len(per_cycle)


@settings(deadline=None, max_examples=200)
@given(gaps=schedules,
       latency=st.integers(min_value=1, max_value=8),
       bandwidth=st.integers(min_value=1, max_value=4),
       satisfied=st.sets(st.integers(min_value=0, max_value=29)))
def test_drop_squashed_under_contention(gaps, latency, bandwidth,
                                        satisfied):
    """Pre-satisfying a subset (squash path) never disturbs the rest."""
    queue = InterCoreQueue(latency=latency, bandwidth=bandwidth)
    tags = []
    cycle = 0
    for seq, gap in enumerate(gaps):
        cycle += gap
        tag = make_tag(seq)
        queue.send(tag, cycle)
        tags.append(tag)
    # Some producers were squashed after sending; their tags get
    # satisfied (or orphaned) by the recovery path.
    pre_satisfied = [tags[i] for i in satisfied if i < len(tags)]
    for tag in pre_satisfied:
        tag.satisfy(cycle)
    dropped = queue.drop_squashed()
    assert dropped == len(pre_satisfied)
    assert queue.pending() == len(tags) - dropped

    # The survivors still deliver, FIFO and at most bandwidth per cycle.
    live = [tag for tag in tags if tag not in pre_satisfied]
    deliver_cycle = cycle
    while queue.pending():
        deliver_cycle += 1
        woken_before = [tag for tag in live if tag.ready_cycle is not None]
        queue.deliver(deliver_cycle)
        woken_after = [tag for tag in live if tag.ready_cycle is not None]
        assert len(woken_after) - len(woken_before) <= bandwidth
    assert all(tag.ready_cycle is not None for tag in live)
    ready = [tag.ready_cycle for tag in live]
    assert ready == sorted(ready)
