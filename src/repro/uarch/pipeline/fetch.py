"""Self-fetching front end for single-core (and fused) machines.

The :class:`SelfFetchUnit` walks a dynamic trace in order, consults the
branch predictor and the instruction cache, and pushes uops into its
core's fetch buffer.  A mispredicted control transfer stops fetch until
the offending uop resolves (its execution completes) plus the redirect
penalty — the standard trace-driven misprediction model, in which
wrong-path work is represented by lost fetch cycles rather than by
simulating wrong-path instructions.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...isa.opcodes import OpClass
from ...isa.program import INSTRUCTION_BYTES
from ...trace.record import TraceRecord
from ..branch.btb import FrontEndPredictor
from .core import NO_EVENT, CycleCore
from .uop import COMPLETED, COMMITTED, Uop

_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP


class SelfFetchUnit:
    """Fetches a trace into one :class:`CycleCore`.

    Args:
        core: The core to feed.
        trace: The dynamic instruction stream (retirement order).
        predictor: The front-end branch predictor (direction + BTB + RAS).
        line_bytes: I-cache line size, used to charge one I-cache access
            per new line rather than per instruction.
    """

    def __init__(self, core: CycleCore, trace: Sequence[TraceRecord],
                 predictor: FrontEndPredictor, line_bytes: int = 64):
        self.core = core
        self.trace = trace
        self.predictor = predictor
        self.line_bytes = line_bytes
        self._cursor = 0
        self._next_uid = 0
        self._stall_on: Optional[Uop] = None   # unresolved mispredict
        self._icache_ready = 0                 # cycle the current line arrives
        self._current_line = -1
        self.fetched = 0
        self.mispredict_stalls = 0

    def done(self) -> bool:
        """True once the whole trace has been fetched."""
        return self._cursor >= len(self.trace)

    def stall_cause(self, cycle: int) -> str:
        """Why the front end is (or would be) idle at *cycle*.

        Used for CPI-stack attribution when the core has emptied: a
        pending mispredict redirect dominates, then trace exhaustion
        (``drain``), then I-cache fill / plain fetch latency (both
        reported as ``fetch``).
        """
        if self._stall_on is not None:
            return "redirect"
        if self.done():
            return "drain"
        return "fetch"

    def phase_fetch(self, cycle: int) -> int:
        """Fetch up to ``fetch_width`` instructions at *cycle*.

        Returns:
            Number of uops pushed into the core this cycle.
        """
        if self._stall_on is not None:
            uop = self._stall_on
            if uop.state in (COMPLETED, COMMITTED):
                resume = uop.complete_cycle + self.core.params.mispredict_penalty
                if cycle >= resume:
                    self._stall_on = None
                else:
                    self.mispredict_stalls += 1
                    return 0
            else:
                self.mispredict_stalls += 1
                return 0
        if cycle < self._icache_ready:
            return 0

        # Each uop takes one fetch-buffer slot and nothing drains the
        # buffer during the loop, so its free space sizes the group once.
        core = self.core
        buffer = core._fetch_buffer
        trace = self.trace
        start = cursor = self._cursor
        end = min(len(trace), cursor + core.params.fetch_width,
                  cursor + core._fetch_capacity - len(buffer))
        uid = self._next_uid
        line_bytes = self.line_bytes
        hit_latency = core.params.l1i.hit_latency
        current_line = self._current_line
        predictor = self.predictor
        while cursor < end:
            record = trace[cursor]
            address = record.pc * INSTRUCTION_BYTES
            line = address // line_bytes
            if line != current_line:
                latency = core.hierarchy.fetch(address)
                current_line = line
                if latency > hit_latency:
                    # Line miss: this slot and the rest of the group wait.
                    self._icache_ready = cycle + latency
                    break
            uop = Uop(record, cursor, uid)
            uid += 1
            uop.fetch_cycle = cycle
            buffer.append(uop)
            cursor += 1
            op_class = record.op_class
            if op_class == _BRANCH or op_class == _JUMP:
                correct = predictor.predict(record)
                predictor.update(record)
                if not correct:
                    uop.predicted_wrong = True
                    self._stall_on = uop
                    break
                if record.taken:
                    # A correctly-predicted taken transfer still ends the
                    # sequential fetch group (one taken branch per cycle).
                    current_line = -1
                    break
        self._current_line = current_line
        self._cursor = cursor
        self._next_uid = uid
        fetched = cursor - start
        self.fetched += fetched
        return fetched

    def next_event(self, cycle: int) -> int:
        """Earliest future cycle the front end schedules on its own.

        Part of the idle-cycle skip-ahead contract (see
        :meth:`CycleCore.next_event`): given that :meth:`phase_fetch`
        made no progress at *cycle*, every cycle before the returned one
        replays identically.  An unresolved mispredict resolves at a
        core completion event, so the core's own ``next_event`` bounds
        it; a resolved one resumes at a known redirect cycle; an I-cache
        fill arrives at a known cycle.  Anything else (core fetch buffer
        full, trace drained) is unblocked only by core-side events.
        """
        stalled = self._stall_on
        if stalled is not None:
            if stalled.state in (COMPLETED, COMMITTED):
                resume = (stalled.complete_cycle
                          + self.core.params.mispredict_penalty)
                return resume if resume > cycle else cycle + 1
            return NO_EVENT
        if self._cursor < len(self.trace) and cycle < self._icache_ready:
            return self._icache_ready
        return NO_EVENT

    def charge_idle_cycles(self, count: int) -> None:
        """Replay *count* skipped idle cycles' front-end counters.

        :meth:`phase_fetch` increments ``mispredict_stalls`` once per
        stalled cycle while a redirect is pending; nothing else in the
        front end counts per cycle.
        """
        if self._stall_on is not None:
            self.mispredict_stalls += count

    def snapshot(self) -> dict:
        """JSON-able forensic snapshot of the front end's state."""
        from ...integrity.forensics import uop_brief

        return {
            "cursor": self._cursor,
            "trace_length": len(self.trace),
            "fetched": self.fetched,
            "icache_ready": self._icache_ready,
            "mispredict_stalls": self.mispredict_stalls,
            "stalled_on": (uop_brief(self._stall_on)
                           if self._stall_on is not None else None),
        }
