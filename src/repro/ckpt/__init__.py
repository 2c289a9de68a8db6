"""Crash-safe checkpoint/restore for all simulated machines.

The subsystem has three layers:

* :mod:`repro.ckpt.state` — the serialized snapshot itself
  (:class:`MachineCheckpoint`), trace fingerprinting (hashed once per
  run inside a :func:`run_scope`), and the checkpoint-specific
  error hierarchy.
* :mod:`repro.ckpt.store` — ``repro-ckpt-v1`` files under
  ``.repro_cache/checkpoints/``, a thin client of :mod:`repro.diskstore`
  like the result and trace caches: one checksummed envelope, one
  quarantine, and a run key that includes ``MODEL_VERSION``.
* :mod:`repro.ckpt.manager` — :meth:`Checkpointer.begin`, where every
  machine run starts: it resolves the interval
  (``REPRO_CHECKPOINT_INTERVAL``; 0 = off, the default, so tier-1 stays
  fast), the chaos guard and the sink once, looks up and restores the
  run's latest checkpoint, and returns the :class:`Checkpointer` the
  run loop polls at quiesced commit boundaries.

The hard invariant: restoring a mid-run checkpoint and resuming is
bit-identical to a straight-through run — same final stats, CPI-stack
ledger, and commit stream.
"""

from .state import (
    CheckpointCorruption,
    CheckpointError,
    CheckpointMismatch,
    MachineCheckpoint,
    run_scope,
    trace_fingerprint,
)
from .store import (
    CHECKPOINT_FORMAT,
    DEFAULT_CHECKPOINT_DIR,
    CheckpointStore,
    run_key,
)
from .manager import (
    ENV_INTERVAL,
    Checkpointer,
    heartbeat,
    resolve_interval,
    set_heartbeat,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "DEFAULT_CHECKPOINT_DIR",
    "ENV_INTERVAL",
    "CheckpointCorruption",
    "CheckpointError",
    "CheckpointMismatch",
    "Checkpointer",
    "CheckpointStore",
    "MachineCheckpoint",
    "heartbeat",
    "resolve_interval",
    "run_key",
    "run_scope",
    "set_heartbeat",
    "trace_fingerprint",
]
