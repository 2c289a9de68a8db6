"""Dynamic instruction trace records.

A :class:`TraceRecord` describes one *executed instance* of an instruction
— the unit every timing model in this repository consumes.  Records are
deliberately architecture-flavoured rather than simulator-flavoured: they
say what the instruction *did* (registers read/written, memory address
touched, branch outcome), never how long anything took.

Records are produced either by the functional interpreter
(:mod:`repro.isa.interpreter`) running a real program, or by the synthetic
workload generators (:mod:`repro.workloads`) which emit statistically
calibrated streams directly.

Records never change once made, so every producer shares their field
values instead of allocating one per record: a record's ``seq`` is the
process-wide :func:`positions` int of its position, and its ``srcs`` the
one :data:`SOURCES` tuple of that value.  A trace's records are equal
to separately allocated ones, field for field; they only cost less.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.opcodes import OpClass

# Module-level aliases: an enum member lookup on every property read
# costs about three times a global load.
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP

#: ``_POSITIONS[i]`` is the ``seq`` of every record at position *i*: one
#: int object per position (about 36 bytes with its list slot), made by
#: the longest trace so far and kept for the process.
_POSITIONS: List[int] = []
_POSITIONS_LOCK = threading.Lock()

#: The one tuple of each distinct ``srcs`` value, which every record of
#: that value holds: producers take ``SOURCES.setdefault(srcs, srcs)``.
#: Bounded by the register file (a few thousand tuples at most).
SOURCES: Dict[Tuple[int, ...], Tuple[int, ...]] = {}


def positions(length: int) -> List[int]:
    """The process's shared ``seq`` ints, at least *length* of them
    (``positions(n)[i] == i``)."""
    if len(_POSITIONS) < length:
        with _POSITIONS_LOCK:  # two growers must not both append
            _POSITIONS.extend(range(len(_POSITIONS), length))
    return _POSITIONS


class TraceRecord:
    """One dynamic instruction.

    Attributes:
        seq: Position in the dynamic stream (0-based, dense).
        pc: Static instruction address (instruction index; multiply by 4
            for a byte PC).
        op_class: :class:`repro.isa.opcodes.OpClass` of the instruction.
        dst: Destination architectural register id or ``None``.
        srcs: Tuple of source architectural register ids.
        mem_addr: Byte address touched, or ``None`` for non-memory ops.
        mem_size: Access size in bytes (0 for non-memory ops).
        taken: Branch outcome; ``False`` for non-control instructions,
            always ``True`` for unconditional jumps.
        target: PC of the next dynamic instruction when control transfers
            (taken branch / jump); ``None`` otherwise.
    """

    __slots__ = ("seq", "pc", "op_class", "dst", "srcs",
                 "mem_addr", "mem_size", "taken", "target")

    def __init__(self, seq: int, pc: int, op_class: OpClass,
                 dst: Optional[int] = None,
                 srcs: Tuple[int, ...] = (),
                 mem_addr: Optional[int] = None,
                 mem_size: int = 0,
                 taken: bool = False,
                 target: Optional[int] = None):
        self.seq = seq
        self.pc = pc
        self.op_class = op_class
        self.dst = dst
        self.srcs = srcs
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.taken = taken
        self.target = target

    @property
    def is_load(self) -> bool:
        return self.op_class == _LOAD

    @property
    def is_store(self) -> bool:
        return self.op_class == _STORE

    @property
    def is_memory(self) -> bool:
        op_class = self.op_class
        return op_class == _LOAD or op_class == _STORE

    @property
    def is_branch(self) -> bool:
        return self.op_class == _BRANCH

    @property
    def is_jump(self) -> bool:
        return self.op_class == _JUMP

    @property
    def is_control(self) -> bool:
        op_class = self.op_class
        return op_class == _BRANCH or op_class == _JUMP

    def __repr__(self) -> str:
        extras = []
        if self.dst is not None:
            extras.append(f"dst={self.dst}")
        if self.srcs:
            extras.append(f"srcs={self.srcs}")
        if self.mem_addr is not None:
            extras.append(f"addr={self.mem_addr:#x}")
        if self.is_control:
            extras.append(f"taken={self.taken} target={self.target}")
        detail = " ".join(extras)
        return (f"<TraceRecord #{self.seq} pc={self.pc} "
                f"{self.op_class.name} {detail}>")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.seq == other.seq and self.pc == other.pc
                and self.op_class == other.op_class
                and self.dst == other.dst and self.srcs == other.srcs
                and self.mem_addr == other.mem_addr
                and self.mem_size == other.mem_size
                and self.taken == other.taken
                and self.target == other.target)

    def __hash__(self) -> int:
        return hash((self.seq, self.pc, self.op_class))


def validate_trace(records: Sequence[TraceRecord]) -> None:
    """Check the invariants every well-formed trace satisfies.

    * ``seq`` fields are dense and start at 0,
    * memory instructions carry an address and a positive size,
    * non-memory instructions carry neither,
    * control transfers carry a target, non-control records do not.

    Raises:
        ValueError: describing the first violated invariant.
    """
    for expected_seq, record in enumerate(records):
        where = f"record {expected_seq}"
        if record.seq != expected_seq:
            raise ValueError(f"{where}: seq {record.seq} is not dense")
        if record.is_memory:
            if record.mem_addr is None:
                raise ValueError(f"{where}: memory op without address")
            if record.mem_size <= 0:
                raise ValueError(f"{where}: memory op with size "
                                 f"{record.mem_size}")
        else:
            if record.mem_addr is not None:
                raise ValueError(f"{where}: non-memory op with address")
        if record.taken and not record.is_control:
            raise ValueError(f"{where}: non-control op marked taken")
        if record.taken and record.target is None:
            raise ValueError(f"{where}: taken transfer without target")
        if not record.is_control and record.target is not None:
            raise ValueError(f"{where}: non-control op with target")
