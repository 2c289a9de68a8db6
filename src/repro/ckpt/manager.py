"""One checkpoint lifecycle per machine run.

Every machine run starts in :meth:`Checkpointer.begin`, the one place
that resolves the interval (in committed measured instructions: the
machine's ``checkpoint_interval``, else ``REPRO_CHECKPOINT_INTERVAL``;
0, the default, is off, so tier-1 runs never pay the pickling cost),
the chaos guard and the sink, and that looks up, restores or
quarantines the run's latest checkpoint.  The run loop then polls the
returned :class:`Checkpointer`: ``due(committed)`` is a cheap integer
compare, and ``take(...)`` saves the machine's payload as a
:class:`MachineCheckpoint`.  A :class:`Snapshot` answers the same
protocol in memory: it keeps one payload and writes nothing (the
adaptive machine's probes).

The module-level heartbeat hook lets the sweep harness observe worker
liveness: every successful ``take`` touches the heartbeat, so a worker
that keeps checkpointing is provably not stuck even when a single job
runs for a long time.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Sequence, Tuple

from .. import diskstore
from .state import CheckpointError, MachineCheckpoint, trace_fingerprint
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

    Created by :meth:`begin`, which returns ``None`` in its place when
    checkpointing is off for the run — machines guard every call site
    with ``if ckpt is not None`` so the disabled path costs nothing.
    """

    def __init__(self, interval: int, machine: str, workload: str,
                 original_trace: Sequence, warmup: int, params_key: str,
                 sink):
        self.interval = interval
        self.machine = machine
        self.workload = workload
        self.warmup = warmup
        self.params_key = params_key
        self.sink = sink
        # The trace fingerprint and the store key are computed when a
        # lookup or the first take() needs them (see _run_key).
        self._trace = original_trace
        self.fingerprint: Optional[str] = None
        self.key: Optional[str] = None
        self.next_mark = interval
        self.last_path: Optional[str] = None
        self.last_committed: Optional[int] = None

    @classmethod
    def begin(cls, machine, label: str, workload: str,
              original_trace: Sequence, warmup: int, keys: Sequence[str],
              resume_from: Optional[MachineCheckpoint] = None,
              horizon: int = 0
              ) -> Tuple[Optional[dict], Optional["Checkpointer"]]:
        """Start *machine*'s run over *original_trace* (the trace before
        its warm-up split): ``(state, checkpointer)``.

        *state* is the restored state, holding every one of *keys*, or
        ``None`` for a cold start.  The checkpointer is ``None`` when
        the interval is 0 or chaos other than ``corrupt_checkpoint`` is
        active (fault wrappers do not pickle).  Its sink is the
        machine's ``checkpoint_sink`` (an object with ``save``, and with
        ``load`` if its runs should resume) or a :class:`CheckpointStore`.

        Without *resume_from*, a checkpointing run with no observer and
        no chaos loads its latest checkpoint if it could have written
        one: if *horizon*, the last committed count at which the run
        polls :meth:`due`, reaches the interval.  A found checkpoint
        that does not restore is quarantined and the run starts cold;
        an explicit *resume_from* that does not restore raises
        :class:`CheckpointMismatch` or :class:`CheckpointCorruption`.
        """
        interval = resolve_interval(machine.checkpoint_interval)
        chaos = getattr(machine, "_chaos_kinds", ())
        ckpt = None
        if interval > 0 and all(kind == "corrupt_checkpoint"
                                for kind in chaos):
            sink = machine.checkpoint_sink
            ckpt = cls(interval, label, workload, original_trace, warmup,
                       machine.checkpoint_params_key(),
                       CheckpointStore() if sink is None else sink)
        lookup = (resume_from is None and ckpt is not None and not chaos
                  and machine.commit_hook is None and machine.tracer is None
                  and horizon >= interval and hasattr(ckpt.sink, "load"))
        if lookup:
            resume_from = ckpt.sink.load(ckpt._run_key())
        if resume_from is None:
            return None, ckpt
        try:
            state = resume_from.restore(label, original_trace, warmup,
                                        machine.checkpoint_params_key(),
                                        keys)
        except CheckpointError as error:
            if not lookup:
                raise
            diskstore.quarantine(ckpt.sink.path_for(ckpt.key), error)
            return None, ckpt
        if ckpt is not None:
            # The first mark lies past the restored point, so the run
            # does not re-take the checkpoint it resumed from.
            ckpt.next_mark = interval * (resume_from.committed // interval
                                         + 1)
        return state, ckpt

    def _run_key(self) -> str:
        """The run's store key.  The trace is hashed the first time, so
        a run that neither looks up nor reaches its first mark never
        hashes it here (inside a fingerprint scope a hash the run
        already made is reused)."""
        if self.key is None:
            self.fingerprint = trace_fingerprint(self._trace)
            self.key = run_key(self.machine, self.workload, self.warmup,
                               self.params_key, self.fingerprint)
        return self.key

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
        key = self._run_key()
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
        path = self.sink.save(key, checkpoint)
        self.last_path = str(path) if path is not None else None
        self.last_committed = committed
        heartbeat()

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
