"""Periodic checkpoint capture at quiesced commit boundaries.

Machines consult a :class:`Checkpointer` at the top of their run loop:
``due(committed)`` is a cheap integer compare, and ``take(...)`` asks
the machine for a payload, wraps it in a :class:`MachineCheckpoint`,
and hands it to the sink (by default a :class:`CheckpointStore` on
disk).  The interval is measured in *committed measured instructions*
and resolves from ``REPRO_CHECKPOINT_INTERVAL`` when the machine was
not given an explicit value; 0 disables checkpointing entirely, and it
is off by default so tier-1 runs never pay the pickling cost.

A :class:`Snapshot` answers the same run-loop protocol in memory: it
keeps one payload and writes nothing (the adaptive machine's probes).

The module-level heartbeat hook lets the sweep harness observe worker
liveness: every successful ``take`` touches the heartbeat, so a worker
that keeps checkpointing is provably not stuck even when a single job
runs for a long time.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Sequence

from .state import MachineCheckpoint, trace_fingerprint
from .store import CheckpointStore, run_key

ENV_INTERVAL = "REPRO_CHECKPOINT_INTERVAL"

# Harness-installed liveness callback; invoked after every checkpoint.
_heartbeat_hook: Optional[Callable[[], None]] = None


def set_heartbeat(callback: Optional[Callable[[], None]]) -> None:
    """Install (or clear, with ``None``) the process-wide heartbeat."""
    global _heartbeat_hook
    _heartbeat_hook = callback


def heartbeat() -> None:
    """Touch the heartbeat, if one is installed.  Never raises."""
    if _heartbeat_hook is not None:
        try:
            _heartbeat_hook()
        except Exception:
            pass


def resolve_interval(explicit: Optional[int]) -> int:
    """Resolve the checkpoint interval: explicit value wins, else the
    ``REPRO_CHECKPOINT_INTERVAL`` environment knob, else 0 (off)."""
    if explicit is not None:
        return max(0, int(explicit))
    raw = os.environ.get(ENV_INTERVAL, "").strip()
    if not raw:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


class Checkpointer:
    """Drives periodic checkpoints for one machine run.

    Created via :meth:`maybe`, which returns ``None`` when
    checkpointing is off for this run — machines guard every call site
    with ``if ckpt is not None`` so the disabled path costs nothing.
    """

    def __init__(self, interval: int, machine: str, workload: str,
                 original_trace: Sequence, warmup: int, params_key: str,
                 sink, start: int = 0):
        self.interval = interval
        self.machine = machine
        self.workload = workload
        self.warmup = warmup
        self.params_key = params_key
        self.sink = sink
        # The trace fingerprint and the store key are computed at the
        # first take(), so a run that ends before its first mark never
        # hashes the trace here (inside a fingerprint scope a hash the
        # run already made is reused).
        self._trace = original_trace
        self.fingerprint: Optional[str] = None
        self.key: Optional[str] = None
        # First mark strictly past the starting point, so a restored
        # run does not immediately re-take the checkpoint it resumed
        # from.
        self.next_mark = interval * (start // interval + 1)
        self.last_path: Optional[str] = None
        self.last_committed: Optional[int] = None

    @classmethod
    def maybe(cls, machine, label: str, workload: str,
              original_trace: Sequence, warmup: int,
              start: int = 0) -> Optional["Checkpointer"]:
        """Build a checkpointer for *machine*'s run, or ``None``.

        Disabled when the resolved interval is 0, or when chaos other
        than ``corrupt_checkpoint`` is active on the machine (fault
        injectors wrap state in closures that cannot be pickled, and a
        checkpoint of a deliberately-corrupted machine is worthless).
        """
        interval = resolve_interval(
            getattr(machine, "checkpoint_interval", None))
        if interval <= 0:
            return None
        chaos_kinds = getattr(machine, "_chaos_kinds", ())
        if any(kind != "corrupt_checkpoint" for kind in chaos_kinds):
            return None
        sink = getattr(machine, "checkpoint_sink", None)
        if sink is None:
            sink = CheckpointStore()
        return cls(interval, label, workload, original_trace, warmup,
                   machine.checkpoint_params_key(), sink, start=start)

    def due(self, committed: int) -> bool:
        return committed >= self.next_mark

    def take(self, cycle: int, committed: int,
             payload_fn: Callable[[], bytes]) -> None:
        """Capture one checkpoint and advance the schedule.

        *payload_fn* is only invoked when a checkpoint is actually
        taken; it returns the machine's pickled dynamic state.
        """
        while self.next_mark <= committed:
            self.next_mark += self.interval
        if self.key is None:
            self.fingerprint = trace_fingerprint(self._trace)
            self.key = run_key(self.machine, self.workload, self.warmup,
                               self.params_key, self.fingerprint)
        checkpoint = MachineCheckpoint(
            machine=self.machine,
            workload=self.workload,
            warmup=self.warmup,
            trace_fingerprint=self.fingerprint,
            params_key=self.params_key,
            cycle=cycle,
            committed=committed,
            payload=payload_fn(),
        )
        path = self._write(checkpoint)
        self.last_path = str(path) if path is not None else None
        self.last_committed = committed
        heartbeat()

    def _write(self, checkpoint: MachineCheckpoint):
        save = getattr(self.sink, "save", None)
        if save is not None:
            return save(self.key, checkpoint)
        # Bare-callable sink (tests, chaos wrappers).
        return self.sink(self.key, checkpoint)

    def anchor(self, error) -> None:
        """Attach the latest checkpoint to a structured simulation
        error, so forensics and ``repro minimize`` can replay from the
        snapshot instead of the trace head."""
        if self.last_path is None or self.last_committed is None:
            return
        try:
            error.attach(context={
                "checkpoint": self.last_path,
                "checkpoint_key": self.key,
                "checkpoint_committed": self.last_committed,
            })
        except Exception:
            pass


class Snapshot:
    """One in-memory checkpoint: the payload at the first loop top
    where ``committed >= mark``.

    It answers the :class:`Checkpointer` protocol (``due``, ``take``,
    ``anchor``), so a machine's run loop polls it in a checkpointer's
    place, and it writes nothing anywhere.
    """

    def __init__(self, mark: int):
        self.mark = mark
        self.payload: Optional[bytes] = None

    def due(self, committed: int) -> bool:
        return self.payload is None and committed >= self.mark

    def take(self, cycle: int, committed: int,
             payload_fn: Callable[[], bytes]) -> None:
        self.payload = payload_fn()

    def anchor(self, error) -> None:
        """Nothing to attach: forensics replay only from files."""
