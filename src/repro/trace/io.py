"""Trace serialisation: a compact, self-describing binary format.

Traces can be large (hundreds of thousands of records), so the format is
a fixed-size packed record per instruction with a small header:

.. code-block:: text

    header:  magic "FGTR" | u32 version | u64 record count
    record:  u32 pc | u8 op_class | i8 dst | u8 nsrcs | u8 flags
             | u8 srcs[4] | u64 mem_addr | u8 mem_size | u32 target

``flags`` bit 0 = taken, bit 1 = has mem_addr, bit 2 = has target,
bit 3 = has dst.  ``srcs`` is fixed at 4 slots (the ISA never uses more
than 2, but the slack keeps the format future-proof); unused slots are
0xFF.  ``seq`` is implicit from record position.

:func:`read_trace` unpacks the payload in one ``Struct.iter_unpack`` pass
and builds each record from positional arguments, sharing field values
the way generated records do (see :mod:`repro.trace.record`): ``seq`` is
the process-wide position int, ``srcs`` the shared tuple of its value,
and every ``pc`` and ``target`` of one trace is one int per value.  A
record read back costs about half of what a separately allocated one
does, and reading is about twice as fast.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable, List, Union

from ..isa.opcodes import OpClass
from .record import SOURCES, TraceRecord, positions

MAGIC = b"FGTR"
VERSION = 1
_HEADER = struct.Struct("<4sIQ")
_RECORD = struct.Struct("<IbbBB4BQBI")
_MAX_SRCS = 4
_NO_REG = 0xFF

_FLAG_TAKEN = 1
_FLAG_MEM = 2
_FLAG_TARGET = 4
_FLAG_DST = 8

#: Op classes by serialised value.
_OP_CLASSES = tuple(OpClass)
#: Offset of the op-class byte within a packed record.
_OP_OFFSET = 4


class TraceFormatError(Exception):
    """Raised on a malformed trace file."""


def write_trace(records: Iterable[TraceRecord],
                destination: Union[str, Path, BinaryIO]) -> int:
    """Write *records* to *destination* (path or binary file object).

    Returns:
        The number of records written.
    """
    own = isinstance(destination, (str, Path))
    stream = open(destination, "wb") if own else destination
    try:
        records = list(records)
        stream.write(_HEADER.pack(MAGIC, VERSION, len(records)))
        for record in records:
            stream.write(_pack(record))
        return len(records)
    finally:
        if own:
            stream.close()


def read_trace(source: Union[str, Path, BinaryIO]) -> List[TraceRecord]:
    """Read a trace previously written by :func:`write_trace`.

    Raises:
        TraceFormatError: on bad magic, version, truncated data, or an
            op-class byte that names no :class:`OpClass`.
    """
    own = isinstance(source, (str, Path))
    stream = open(source, "rb") if own else source
    try:
        header = stream.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceFormatError("truncated header")
        magic, version, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise TraceFormatError(f"unsupported version {version}")
        payload = stream.read(count * _RECORD.size)
        if len(payload) != count * _RECORD.size:
            raise TraceFormatError(
                f"expected {count} records, file is truncated")
        _check_op_classes(payload)
        return _records(payload, count)
    finally:
        if own:
            stream.close()


def _check_op_classes(payload: bytes) -> None:
    """Refuse an op-class byte outside :class:`OpClass`.  The field is a
    signed byte, so without this check -1 would index the last class."""
    column = payload[_OP_OFFSET::_RECORD.size]
    if column and max(column) >= len(_OP_CLASSES):
        index = next(index for index, value in enumerate(column)
                     if value >= len(_OP_CLASSES))
        value = _RECORD.unpack_from(payload, index * _RECORD.size)[1]
        raise TraceFormatError(f"record {index}: unknown op class {value}")


def _records(payload: bytes, count: int) -> List[TraceRecord]:
    seqs = positions(count)
    shared_srcs = SOURCES.setdefault
    shared_pc = {}.setdefault
    records: List[TraceRecord] = []
    append = records.append
    for seq, (pc, op_class, dst, nsrcs, flags, s0, s1, s2, s3, mem_addr,
              mem_size, target) in zip(seqs, _RECORD.iter_unpack(payload)):
        srcs = (s0, s1, s2, s3)[:nsrcs]
        append(TraceRecord(
            seq, shared_pc(pc, pc), _OP_CLASSES[op_class],
            dst if flags & _FLAG_DST else None, shared_srcs(srcs, srcs),
            mem_addr if flags & _FLAG_MEM else None, mem_size,
            flags & _FLAG_TAKEN != 0,
            shared_pc(target, target) if flags & _FLAG_TARGET else None))
    return records


def _pack(record: TraceRecord) -> bytes:
    flags = 0
    if record.taken:
        flags |= _FLAG_TAKEN
    if record.mem_addr is not None:
        flags |= _FLAG_MEM
    if record.target is not None:
        flags |= _FLAG_TARGET
    if record.dst is not None:
        flags |= _FLAG_DST
    srcs = list(record.srcs[:_MAX_SRCS])
    if len(record.srcs) > _MAX_SRCS:
        raise TraceFormatError(
            f"record {record.seq} has {len(record.srcs)} sources, "
            f"format supports {_MAX_SRCS}")
    srcs += [_NO_REG] * (_MAX_SRCS - len(srcs))
    return _RECORD.pack(
        record.pc,
        int(record.op_class),
        record.dst if record.dst is not None else -1,
        len(record.srcs),
        flags,
        *srcs,
        record.mem_addr if record.mem_addr is not None else 0,
        record.mem_size,
        record.target if record.target is not None else 0,
    )

