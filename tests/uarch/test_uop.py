"""Unit tests for uops and value tags."""

import pytest

from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.uarch.pipeline.uop import (
    DISPATCHED,
    FETCHED,
    SQUASHED,
    Uop,
    ValueTag,
)


def alu_record(seq=0):
    return TraceRecord(seq, seq, OpClass.IALU, 1, (2,))


def test_uop_initial_state():
    uop = Uop(alu_record(), seq=0, uid=7)
    assert uop.state == FETCHED
    assert uop.seq == 0
    assert uop.pending == 0
    assert uop.complete_cycle is None
    assert not uop.replica


def test_uop_repr_readable():
    text = repr(Uop(alu_record(3), seq=3, uid=1))
    assert "seq=3" in text
    assert "IALU" in text


def test_tag_satisfy_wakes_ready_consumers():
    tag = ValueTag("t")
    consumer = Uop(alu_record(), seq=0, uid=0)
    consumer.state = DISPATCHED
    consumer.pending = 1
    tag.consumers.append(consumer)
    woken = tag.satisfy(10)
    assert woken == [consumer]
    assert consumer.pending == 0
    assert consumer.operand_ready == 10


def test_tag_satisfy_skips_squashed():
    tag = ValueTag()
    consumer = Uop(alu_record(), seq=0, uid=0)
    consumer.state = SQUASHED
    consumer.pending = 1
    tag.consumers.append(consumer)
    assert tag.satisfy(5) == []
    assert consumer.pending == 1


def test_tag_satisfy_partial_pending_not_woken():
    tag = ValueTag()
    consumer = Uop(alu_record(), seq=0, uid=0)
    consumer.state = DISPATCHED
    consumer.pending = 2
    tag.consumers.append(consumer)
    assert tag.satisfy(5) == []
    assert consumer.pending == 1


def test_tag_double_satisfy_rejected():
    tag = ValueTag("x")
    tag.satisfy(1)
    with pytest.raises(ValueError, match="twice"):
        tag.satisfy(2)


def test_tag_keeps_max_operand_ready():
    tag = ValueTag()
    consumer = Uop(alu_record(), seq=0, uid=0)
    consumer.state = DISPATCHED
    consumer.pending = 1
    consumer.operand_ready = 50
    tag.consumers.append(consumer)
    tag.satisfy(10)
    assert consumer.operand_ready == 50  # earlier value not regressed
