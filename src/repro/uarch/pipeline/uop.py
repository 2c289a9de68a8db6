"""In-flight dynamic instruction (micro-op) state.

A :class:`Uop` wraps one :class:`repro.trace.TraceRecord` while it flows
through a :class:`repro.uarch.pipeline.core.CycleCore`.  Its ``seq`` is
the record's position in the measured stream, which its creator passes
in; the record's own ``seq`` field is never read.  The Fg-STP
orchestrator may create *two* uops for one trace record (replication) —
they share the ``seq`` and both must complete before that seq commits.

:class:`ValueTag` is the handle for a value that arrives from outside the
core (an inter-core communication queue in Fg-STP): consumers treat it as
an extra producer whose completion time becomes known when the
orchestrator delivers the value.
"""

from __future__ import annotations

from typing import List, Optional

from ...isa.opcodes import OpClass
from ...trace.record import TraceRecord

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE

# Uop lifecycle states.
FETCHED = 0      #: in the fetch buffer
DISPATCHED = 1   #: in ROB + IQ, waiting on operands / FU
ISSUED = 2       #: executing; completion cycle is known
COMPLETED = 3    #: executed, waiting to commit
COMMITTED = 4    #: retired
SQUASHED = 5     #: killed by a pipeline flush

STATE_NAMES = {
    FETCHED: "fetched",
    DISPATCHED: "dispatched",
    ISSUED: "issued",
    COMPLETED: "completed",
    COMMITTED: "committed",
    SQUASHED: "squashed",
}


class ValueTag:
    """A value delivered to a core from outside (inter-core queue).

    Attributes:
        ready_cycle: Cycle the value is usable by consumers, ``None``
            until the orchestrator delivers it via :meth:`satisfy`.
        consumers: Uops waiting on this tag.
        label: Debug label (e.g. ``"r7@142"``).
    """

    __slots__ = ("ready_cycle", "consumers", "label")

    def __init__(self, label: str = ""):
        self.ready_cycle: Optional[int] = None
        self.consumers: List["Uop"] = []
        self.label = label

    def satisfy(self, cycle: int) -> List["Uop"]:
        """Mark the value available at *cycle*; wake waiting consumers.

        Returns:
            Consumers whose dependences became fully resolved.
        """
        if self.ready_cycle is not None:
            raise ValueError(f"tag {self.label!r} satisfied twice")
        self.ready_cycle = cycle
        woken = []
        for uop in self.consumers:
            if uop.state == SQUASHED:
                continue
            if cycle > uop.operand_ready:
                uop.operand_ready = cycle
            uop.pending -= 1
            if uop.pending == 0 and uop.state == DISPATCHED:
                woken.append(uop)
        self.consumers.clear()
        return woken

    def __repr__(self) -> str:
        return f"<ValueTag {self.label} ready={self.ready_cycle}>"


class Uop:
    """One in-flight dynamic instruction inside a core.

    Dependence tracking works on two counters:

    * ``pending`` — number of producers whose completion time is still
      unknown (not yet issued, or an unsatisfied :class:`ValueTag`).
    * ``operand_ready`` — the running max of known producer completion
      times (the cycle all *known* operands are available).

    When ``pending`` hits zero the uop enters the ready heap keyed by
    ``max(operand_ready, dispatch_cycle + 1)``.
    """

    __slots__ = (
        "record", "uid", "seq", "replica", "cluster", "core_id", "pool",
        "state", "pending", "operand_ready", "consumers",
        "fetch_cycle", "dispatch_cycle", "ready_cycle", "issue_cycle",
        "complete_cycle", "commit_cycle", "forwarded", "extra_deps",
        "predicted_wrong", "is_memory",
    )

    def __init__(self, record: TraceRecord, seq: int, uid: int,
                 replica: bool = False, core_id: int = 0):
        self.record = record
        self.uid = uid
        self.seq = seq
        # Cached off the record: read once per dispatch/commit/squash
        # per cycle on the hot path (a double property hop otherwise).
        op_class = record.op_class
        self.is_memory = op_class == _LOAD or op_class == _STORE
        self.replica = replica
        self.cluster = 0
        self.core_id = core_id
        self.pool = ""
        self.state = FETCHED
        self.pending = 0
        self.operand_ready = 0
        self.consumers: List["Uop"] = []
        self.fetch_cycle = -1
        self.dispatch_cycle = -1
        self.ready_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle: Optional[int] = None
        self.commit_cycle = -1
        self.forwarded = False          # load served by in-core store forward
        self.extra_deps: List[ValueTag] = []    # attached before feeding
        self.predicted_wrong = False    # front end mispredicted this uop

    def __repr__(self) -> str:
        return (f"<Uop uid={self.uid} seq={self.seq} "
                f"{self.record.op_class.name} "
                f"{STATE_NAMES.get(self.state, '?')}>")
