"""Unit tests for the inter-core value queues."""

import pytest

from repro.fgstp.comm import InterCoreQueue
from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.uarch.pipeline.uop import DISPATCHED, Uop, ValueTag


def make_consumer(seq=0):
    uop = Uop(TraceRecord(seq, seq, OpClass.IALU, 1, (2,)), seq=seq, uid=seq)
    uop.state = DISPATCHED
    uop.pending = 1
    return uop


def tag_with_consumer(seq=0):
    tag = ValueTag(f"t{seq}")
    consumer = make_consumer(seq)
    tag.consumers.append(consumer)
    return tag, consumer


def test_delivery_after_latency():
    queue = InterCoreQueue(latency=5, bandwidth=2)
    tag, consumer = tag_with_consumer()
    queue.send(tag, cycle=10)
    assert queue.deliver(14) == []
    woken = queue.deliver(15)
    assert woken == [consumer]
    assert tag.ready_cycle == 15


def test_fifo_order():
    queue = InterCoreQueue(latency=1, bandwidth=1)
    tag_a, _ = tag_with_consumer(0)
    tag_b, _ = tag_with_consumer(1)
    queue.send(tag_a, 0)
    queue.send(tag_b, 0)
    queue.deliver(1)
    assert tag_a.ready_cycle == 1
    assert tag_b.ready_cycle is None
    queue.deliver(2)
    assert tag_b.ready_cycle == 2


def test_bandwidth_limits_per_cycle():
    queue = InterCoreQueue(latency=1, bandwidth=2)
    tags = []
    for i in range(5):
        tag, _ = tag_with_consumer(i)
        tags.append(tag)
        queue.send(tag, 0)
    queue.deliver(1)
    assert sum(1 for t in tags if t.ready_cycle is not None) == 2
    queue.deliver(2)
    assert sum(1 for t in tags if t.ready_cycle is not None) == 4
    assert queue.contention_cycles > 0


def test_contention_counted():
    queue = InterCoreQueue(latency=1, bandwidth=1)
    tag_a, _ = tag_with_consumer(0)
    tag_b, _ = tag_with_consumer(1)
    queue.send(tag_a, 0)
    queue.send(tag_b, 0)
    queue.deliver(1)
    queue.deliver(2)
    assert queue.contention_cycles == 1


def test_stats():
    queue = InterCoreQueue(latency=2, bandwidth=4, name="q")
    tag, _ = tag_with_consumer()
    queue.send(tag, 0)
    queue.deliver(2)
    assert queue.stats() == {"sends": 1, "deliveries": 1,
                             "contention_cycles": 0,
                             "mouth_blocked_cycles": 0}


def test_mouth_blocked_counts_saturated_cycles():
    """A delivery cycle that leaves due entries behind is mouth-blocked."""
    queue = InterCoreQueue(latency=1, bandwidth=2)
    tags = []
    for i in range(5):
        tag, _ = tag_with_consumer(i)
        tags.append(tag)
        queue.send(tag, 0)
    # Cycle 1: 5 due, 2 delivered, 3 left behind -> blocked.
    queue.deliver(1)
    assert queue.mouth_blocked_cycles == 1
    # Cycle 2: 3 due, 2 delivered, 1 left behind -> blocked.
    queue.deliver(2)
    assert queue.mouth_blocked_cycles == 2
    # Cycle 3: final entry fits in bandwidth -> not blocked.
    queue.deliver(3)
    assert queue.mouth_blocked_cycles == 2
    assert all(tag.ready_cycle is not None for tag in tags)
    assert queue.stats()["mouth_blocked_cycles"] == 2


def test_mouth_not_blocked_when_nothing_due():
    queue = InterCoreQueue(latency=10, bandwidth=1)
    tag, _ = tag_with_consumer()
    queue.send(tag, 0)
    queue.deliver(5)  # entry pending but not yet due
    assert queue.mouth_blocked_cycles == 0


def test_drop_squashed_removes_satisfied():
    queue = InterCoreQueue(latency=10, bandwidth=1)
    tag, _ = tag_with_consumer()
    queue.send(tag, 0)
    tag.satisfy(3)  # satisfied by some other path
    assert queue.drop_squashed() == 1
    assert queue.pending() == 0


def test_validation():
    with pytest.raises(ValueError):
        InterCoreQueue(latency=0, bandwidth=1)
    with pytest.raises(ValueError):
        InterCoreQueue(latency=1, bandwidth=0)


def test_deliver_skips_already_satisfied_tag():
    queue = InterCoreQueue(latency=1, bandwidth=4)
    tag, consumer = tag_with_consumer()
    queue.send(tag, 0)
    tag.satisfy(0)
    woken = queue.deliver(1)
    assert woken == []  # no double wake


def test_snapshot_bounded_under_deep_backlog():
    """snapshot() must stay O(limit): it used to materialise the whole
    FIFO (`list(fifo)[:limit]`) which froze crash forensics on runs
    with hundreds of thousands of queued values."""
    queue = InterCoreQueue(latency=5, bandwidth=1)
    for seq in range(200_000):
        queue.send(ValueTag(f"t{seq}"), seq)
    snap = queue.snapshot(limit=4)
    assert snap["pending"] == 200_000
    assert len(snap["head"]) == 4
    assert [item["tag"] for item in snap["head"]] == [
        "t0", "t1", "t2", "t3"]
    # Head entries report eligibility in FIFO (send) order.
    assert snap["head"][0]["eligible"] == 5


def test_snapshot_limit_exceeding_backlog():
    queue = InterCoreQueue(latency=2, bandwidth=1, name="q0to1")
    queue.send(ValueTag("only"), 7)
    snap = queue.snapshot(limit=8)
    assert snap["name"] == "q0to1"
    assert len(snap["head"]) == 1
    assert snap["head"][0] == {"eligible": 9, "tag": "only",
                               "satisfied": False, "consumers": 0}
