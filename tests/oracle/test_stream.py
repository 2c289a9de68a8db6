"""CommitEvent and GoldenStream unit tests."""

import pytest

from repro.isa import assemble
from repro.isa.errors import ExecutionError
from repro.isa.opcodes import OpClass
from repro.oracle import CommitEvent, GoldenStream, OracleDivergence
from repro.oracle.golden import _check_dataflow, format_memory_value
from repro.trace.record import TraceRecord
from repro.uarch.pipeline.uop import Uop


def _record(seq=0, pc=0, op_class=OpClass.IALU, dst=1, srcs=(2, 3),
            **kwargs):
    return TraceRecord(seq, pc, op_class, dst, tuple(srcs), **kwargs)


class TestCommitEvent:

    def test_from_uop_copies_architectural_fields(self):
        record = _record(seq=7, pc=3, op_class=OpClass.LOAD, dst=4,
                         srcs=(5,), mem_addr=0x40, mem_size=8)
        uop = Uop(record, seq=7, uid=99, core_id=1)
        event = CommitEvent.from_uop(uop, cycle=123)
        assert event.seq == 7
        assert event.pc == 3
        assert event.op_class == OpClass.LOAD
        assert event.dst == 4
        assert event.srcs == (5,)
        assert event.mem_addr == 0x40
        assert event.mem_size == 8
        assert event.cycle == 123
        assert event.core_id == 1
        assert event.replica is False

    def test_from_uop_prefers_uop_seq_over_record_seq(self):
        # The adaptive machine's region shim presents a globally
        # shifted seq on the uop while the record keeps region-local
        # numbering; the event must carry the global one.
        class OffsetProxy:
            def __init__(self, uop, seq):
                self._uop = uop
                self.seq = seq

            def __getattr__(self, name):
                return getattr(self._uop, name)

        uop = Uop(_record(seq=3), seq=3, uid=0)
        event = CommitEvent.from_uop(OffsetProxy(uop, seq=1503), cycle=9)
        assert event.seq == 1503
        assert event.pc == 0

    def test_replace_overrides_only_named_fields(self):
        event = CommitEvent(seq=1, pc=2, op_class=OpClass.IALU, dst=3,
                            srcs=(4,), cycle=10)
        changed = event.replace(dst=5)
        assert changed.dst == 5
        assert changed.seq == 1 and changed.srcs == (4,)
        assert event.dst == 3  # original untouched

    def test_as_dict_is_jsonable(self):
        import json

        event = CommitEvent(seq=0, pc=0, op_class=OpClass.BRANCH,
                            srcs=(1, 2), taken=True, target=5)
        payload = event.as_dict()
        assert payload["op_class"] == "BRANCH"
        assert payload["taken"] is True
        json.dumps(payload)

    def test_repr_mentions_seq_and_class(self):
        event = CommitEvent(seq=12, pc=4, op_class=OpClass.STORE,
                            srcs=(1,), mem_addr=0x10, mem_size=8)
        text = repr(event)
        assert "#12" in text and "STORE" in text


class TestGoldenStreamFromTrace:

    def test_positional_indexing_ignores_record_seq(self):
        # A warm-up suffix keeps its original (non-zero-based) seqs.
        trace = [_record(seq=100 + i, pc=i) for i in range(5)]
        golden = GoldenStream.from_trace(trace)
        assert len(golden) == 5
        assert golden[0].record.seq == 100
        assert golden.records == trace
        assert [e.record for e in golden] == trace
        assert golden.source == "trace"

    def test_trace_fidelity_has_no_values(self):
        golden = GoldenStream.from_trace([_record()])
        assert golden[0].dst_value is None
        assert golden[0].mem_value is None


SOURCE = """
.name golden_values
.data 64
    li r1, 5
    li r2, 7
    add r3, r1, r2
    st r3, 16(r0)
    ld r4, 16(r0)
    halt
"""


class TestGoldenStreamFromProgram:

    def test_captures_destination_values(self):
        golden = GoldenStream.from_program(assemble(SOURCE))
        assert golden.source == "program"
        by_pc = {event.record.pc: event for event in golden}
        assert by_pc[0].dst_value == 5
        assert by_pc[2].dst_value == 12       # 5 + 7
        assert by_pc[4].dst_value == 12       # load sees the store

    def test_captures_memory_bytes(self):
        golden = GoldenStream.from_program(assemble(SOURCE))
        store = next(e for e in golden if e.record.is_store)
        assert store.record.mem_addr == 16
        assert store.record.mem_size == 8
        assert store.mem_value == (12).to_bytes(8, "little", signed=True)

    def test_instruction_budget_raises(self):
        endless = assemble(".name spin\n.data 64\n"
                           "loop:\n    beq r0, r0, loop\n    halt\n")
        with pytest.raises(ExecutionError):
            GoldenStream.from_program(endless, max_instructions=50)


class TestDataflowCrossCheck:

    def test_accepts_matching_dataflow(self):
        record = _record(dst=1, srcs=(2, 3))
        _check_dataflow(record, reads=[2, 3], writes=[(1, 42)])

    def test_rejects_undeclared_read(self):
        # The fmadd-accumulator bug class: the interpreter reads a
        # register the record's srcs never declared, so timing models
        # would miss the dependence.
        record = _record(dst=1, srcs=(2, 3))
        with pytest.raises(OracleDivergence) as exc:
            _check_dataflow(record, reads=[2, 3, 1], writes=[(1, 0)])
        assert exc.value.detail == "dataflow"
        assert "not declared in srcs" in str(exc.value)

    def test_rejects_write_to_undeclared_register(self):
        record = _record(dst=1, srcs=(2,))
        with pytest.raises(OracleDivergence) as exc:
            _check_dataflow(record, reads=[2], writes=[(4, 0)])
        assert exc.value.detail == "dataflow"

    def test_rejects_missing_write(self):
        record = _record(dst=1, srcs=(2,))
        with pytest.raises(OracleDivergence):
            _check_dataflow(record, reads=[2], writes=[])


def test_format_memory_value():
    assert format_memory_value(None) is None
    eight = (7).to_bytes(8, "little", signed=True)
    assert "7" in format_memory_value(eight)
    assert format_memory_value(b"\x01\x02") == "0102"
