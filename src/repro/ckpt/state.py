"""Machine checkpoint payloads, trace fingerprinting and the run scope.

A checkpoint is captured at a *quiesced commit boundary*: the top of a
machine's run loop, where no phase is mid-flight and the committed
instruction count fully describes progress.  The machine pickles its
dynamic state into one blob (one ``pickle.dumps`` call, so shared
object identity — core↔hierarchy links, value-tag consumer graphs,
heap tuples — survives round-tripping) and wraps it in a
:class:`MachineCheckpoint` carrying enough metadata to refuse a restore
into the wrong machine, trace, or configuration.

Fingerprints cover the *original* full trace (before the warmup split)
so the harness can compute a checkpoint's identity without re-running
the split.  Inside a :func:`run_scope`, which every machine run enters,
each trace is hashed at most once: the run's checkpoint lookup, the
restore check and the checkpointer's key share one value.  The same
scope runs the machine with the cyclic garbage collector paused.
"""

from __future__ import annotations

import gc
import hashlib
import marshal
import pickle
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterator, Optional, Sequence, Tuple


class CheckpointError(RuntimeError):
    """Base class for checkpoint/restore failures."""


class CheckpointCorruption(CheckpointError):
    """A checkpoint file or payload failed integrity checks."""


class CheckpointMismatch(CheckpointError):
    """A checkpoint does not belong to this machine/trace/config."""


#: Record fields hashed as one marshalled column each (``op_class``
#: is hashed as one byte per record).
_COLUMNS = ("seq", "pc", "dst", "srcs", "mem_addr", "mem_size", "taken",
            "target")

#: The outermost :func:`run_scope`'s memo (``id(trace)`` ->
#: ``(trace, fingerprint)``), or ``None`` outside any scope.
_memo: ContextVar[Optional[Dict[int, Tuple[Sequence, str]]]] = \
    ContextVar("trace_fingerprint_memo", default=None)


def _hash_trace(trace: Sequence) -> str:
    """The sha256 of *trace*, one field column at a time.

    Each column is marshalled with format version 2, which writes every
    value in full: later versions write back-references, whose presence
    depends on which records share objects, so a trace and its disk
    round trip could hash differently.
    """
    digest = hashlib.sha256(b"repro-trace-v2|%d|" % len(trace))
    digest.update(bytes(map(attrgetter("op_class"), trace)))
    for field in _COLUMNS:
        digest.update(marshal.dumps(list(map(attrgetter(field), trace)), 2))
    return digest.hexdigest()


def trace_fingerprint(trace: Sequence) -> str:
    """Stable sha256 fingerprint of a trace (full, pre-warmup-split).

    Hashes every field of every record, so the fingerprint is
    insensitive to object identity: a trace, its disk round trip and a
    deep copy fingerprint alike.  Inside a :func:`run_scope` a trace
    object is hashed once and its fingerprint reused.
    """
    memo = _memo.get()
    if memo is None:
        return _hash_trace(trace)
    entry = memo.get(id(trace))
    if entry is None:
        # The entry keeps the trace alive, so no other object can take
        # its id while the scope lasts.
        entry = memo[id(trace)] = (trace, _hash_trace(trace))
    return entry[1]


@contextmanager
def run_scope() -> Iterator[None]:
    """The scope of one machine run: each trace is hashed at most once,
    and the cyclic garbage collector is paused.

    Every machine run enters one.  A nested scope, such as the adaptive
    machine's probes and region runs, shares the outer one's memo and
    changes nothing.  The memo dies with the outermost block, so a trace
    mutated in place after a run is hashed afresh by the next.

    The outermost block disables the collector if it is enabled and
    enables it again on exit, also when the run raises; a caller that
    had disabled it finds it still disabled.  No machine run forms a
    reference cycle (``tests/integration/test_teardown.py``), so
    reference counting frees everything a run drops, and the passes
    the pause skips could only walk live objects.
    """
    if _memo.get() is not None:
        yield
        return
    token = _memo.set({})
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()
        _memo.reset(token)


@dataclass
class MachineCheckpoint:
    """One serialized machine snapshot plus identifying metadata.

    Attributes:
        machine: Machine label (``single``/``corefusion``/``fgstp``/
            ``fgstp-adaptive``).
        workload: Workload name the run was started with.
        warmup: Warmup instruction count of the run.
        trace_fingerprint: Fingerprint of the original full trace.
        params_key: Machine-specific configuration key
            (:meth:`checkpoint_params_key`); restores refuse mismatches.
        cycle: Simulated cycle at capture.
        committed: Measured (post-warmup) instructions committed.
        payload: Pickled dynamic state, machine-defined.
    """

    machine: str
    workload: str
    warmup: int
    trace_fingerprint: str
    params_key: str
    cycle: int
    committed: int
    payload: bytes

    def meta(self) -> dict:
        """JSON-safe metadata (everything but the pickle payload)."""
        return {
            "machine": self.machine,
            "workload": self.workload,
            "warmup": self.warmup,
            "trace_fingerprint": self.trace_fingerprint,
            "params_key": self.params_key,
            "cycle": self.cycle,
            "committed": self.committed,
        }

    def validate_for(self, machine: str, fingerprint: str, warmup: int,
                     params_key: str) -> None:
        """Raise :class:`CheckpointMismatch` unless this checkpoint
        belongs to the given machine, trace, and configuration."""
        if self.machine != machine:
            raise CheckpointMismatch(
                f"checkpoint is for machine {self.machine!r}, "
                f"not {machine!r}")
        if self.trace_fingerprint != fingerprint:
            raise CheckpointMismatch(
                "checkpoint trace fingerprint does not match this trace")
        if self.warmup != warmup:
            raise CheckpointMismatch(
                f"checkpoint warmup {self.warmup} != run warmup {warmup}")
        if self.params_key != params_key:
            raise CheckpointMismatch(
                "checkpoint was taken under a different configuration")

    def restore(self, machine: str, trace: Sequence, warmup: int,
                params_key: str, keys: Sequence[str]) -> dict:
        """Validate this checkpoint for a run over the original *trace*
        and return its unpickled state, which must hold every one of
        *keys*.

        Raises:
            CheckpointMismatch: see :meth:`validate_for`.
            CheckpointCorruption: the payload does not deserialize or
                lacks a key.
        """
        self.validate_for(machine, trace_fingerprint(trace), warmup,
                          params_key)
        state = loads_state(self.payload)
        missing = [key for key in keys if key not in state]
        if missing:
            raise CheckpointCorruption(
                f"checkpoint state is missing {missing}")
        return state


def dumps_state(state: dict) -> bytes:
    """Pickle a machine's dynamic-state dict into a payload blob."""
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def loads_state(payload: bytes) -> dict:
    """Unpickle a payload blob; corruption raises
    :class:`CheckpointCorruption` (e.g. version drift past the sha)."""
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of exception types
        raise CheckpointCorruption(
            f"checkpoint payload failed to deserialize: {exc}") from exc
    if not isinstance(state, dict):
        raise CheckpointCorruption(
            f"checkpoint payload is {type(state).__name__}, expected dict")
    return state
