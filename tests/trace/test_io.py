"""Unit tests for trace serialisation."""

import io

import pytest

from repro.isa.opcodes import OpClass
from repro.trace.io import (_HEADER, _RECORD, TraceFormatError, read_trace,
                            write_trace)
from repro.trace.record import TraceRecord


def sample_trace():
    return [
        TraceRecord(0, 100, OpClass.IALU, 5, (1, 2)),
        TraceRecord(1, 101, OpClass.LOAD, 6, (5,), mem_addr=0xdeadbeef,
                    mem_size=8),
        TraceRecord(2, 102, OpClass.STORE, None, (6, 5), mem_addr=0x40,
                    mem_size=8),
        TraceRecord(3, 103, OpClass.BRANCH, None, (5, 6), taken=True,
                    target=100),
        TraceRecord(4, 104, OpClass.BRANCH, None, (5, 6), taken=False),
        TraceRecord(5, 105, OpClass.FDIV, 40, (33, 34)),
        TraceRecord(6, 106, OpClass.NOP),
    ]


def test_roundtrip_memory_stream():
    stream = io.BytesIO()
    records = sample_trace()
    count = write_trace(records, stream)
    assert count == len(records)
    stream.seek(0)
    assert read_trace(stream) == records


def test_roundtrip_file(tmp_path):
    path = tmp_path / "trace.fgtr"
    records = sample_trace()
    write_trace(records, path)
    assert read_trace(path) == records


def test_roundtrip_empty():
    stream = io.BytesIO()
    write_trace([], stream)
    stream.seek(0)
    assert read_trace(stream) == []


def test_bad_magic_rejected():
    stream = io.BytesIO(b"NOPE" + b"\x00" * 12)
    with pytest.raises(TraceFormatError, match="magic"):
        read_trace(stream)


def test_truncated_header_rejected():
    with pytest.raises(TraceFormatError, match="header"):
        read_trace(io.BytesIO(b"FG"))


def test_truncated_payload_rejected():
    stream = io.BytesIO()
    write_trace(sample_trace(), stream)
    data = stream.getvalue()[:-4]
    with pytest.raises(TraceFormatError, match="truncated"):
        read_trace(io.BytesIO(data))


def test_large_addresses_roundtrip():
    record = TraceRecord(0, 1, OpClass.LOAD, 1, (2,),
                         mem_addr=(1 << 40) + 8, mem_size=8)
    stream = io.BytesIO()
    write_trace([record], stream)
    stream.seek(0)
    assert read_trace(stream)[0].mem_addr == (1 << 40) + 8


def test_seq_reassigned_dense_on_read():
    stream = io.BytesIO()
    write_trace(sample_trace(), stream)
    stream.seek(0)
    loaded = read_trace(stream)
    assert [record.seq for record in loaded] == list(range(len(loaded)))


@pytest.mark.parametrize("value", [-1, -128, len(OpClass), 127])
def test_unknown_op_class_rejected(value):
    """The op class is a signed byte: -1 must not index the last class."""
    stream = io.BytesIO()
    write_trace(sample_trace(), stream)
    data = bytearray(stream.getvalue())
    data[_HEADER.size + 3 * _RECORD.size + 4] = value & 0xFF
    with pytest.raises(TraceFormatError,
                       match=f"record 3: unknown op class {value}"):
        read_trace(io.BytesIO(bytes(data)))


def test_unknown_version_rejected():
    stream = io.BytesIO()
    write_trace(sample_trace(), stream)
    data = stream.getvalue()
    bad = _HEADER.pack(b"FGTR", 2, len(sample_trace())) + data[_HEADER.size:]
    with pytest.raises(TraceFormatError, match="unsupported version 2"):
        read_trace(io.BytesIO(bad))
