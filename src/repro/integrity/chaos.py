"""Fault injection (chaos) harness.

Deliberately breaks a machine model to prove the integrity layer end to
end: the watchdog must fire within its window, the crash dump must
describe the stuck state, and the minimizer must shrink the trigger.
Faults are injected by wrapping *instance* attributes of an
already-built machine — the model code itself stays untouched, so a
chaos run differs from a production run only by the spec applied.

Fault kinds (see :data:`KINDS`):

* ``stuck_queue`` — an :class:`~repro.fgstp.comm.InterCoreQueue` stops
  delivering after ``after`` delivery rounds (stuck credits; the
  machine asks a queue to deliver only in a cycle where an entry is
  due): consumers of in-flight values never wake, global commit
  starves, and the machine livelocks.
* ``drop_sends`` — every ``every``-th queue send is silently dropped
  (a lost message): the consumer's :class:`ValueTag` is never
  satisfied.
* ``duplicate_sends`` — every ``every``-th send is enqueued twice,
  wasting delivery bandwidth.  *Not* a hang: a correctness-preserving
  perturbation used to prove the watchdog does not false-positive.
* ``corrupt_specdep`` — the dependence predictor's verdict is forced to
  "speculate" regardless of training: violation squash storms, but
  forward progress must survive.
* ``commit_stall`` — retirement stops after ``after`` commits (a stuck
  commit stage): completed work piles up behind a head that never
  retires.  A single-core machine stops at the end of the commit group
  that reaches ``after``; Fg-STP stops after exactly ``after`` retired
  uops, each replica counted.
* ``corrupt_checkpoint`` — checkpoint files are written normally for
  the first ``after`` snapshots, then every later file has a payload
  byte flipped after landing on disk.  *Not* a hang: the checkpoint
  store must detect the bad sha256, quarantine the file, and fall back
  to a from-scratch run — proving corrupt snapshots can never poison a
  resume.

Specs parse from strings (``"stuck_queue:after=0,queue=0"``) so they
travel through sweep jobs, their crash-dump replay recipes and the
``REPRO_CHAOS`` environment flag.  :func:`maybe_apply_env_chaos` applies
a job's own spec, else the flag's, for
:func:`repro.harness.parallel.execute_job` and
:func:`repro.harness.runners.build_machine`, hence for every harness
path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: Environment flag: when set, its spec is applied to every machine a
#: harness path builds without a spec of its own (kinds that do not
#: apply to a machine are skipped silently).
ENV_CHAOS = "REPRO_CHAOS"

#: Every fault kind the harness can inject.
KINDS = ("stuck_queue", "drop_sends", "duplicate_sends",
         "corrupt_specdep", "commit_stall", "corrupt_checkpoint")


class ChaosError(ValueError):
    """Malformed chaos spec, or a kind inapplicable to the machine."""


@dataclass(frozen=True)
class ChaosSpec:
    """One parsed fault-injection directive.

    Attributes:
        kind: One of :data:`KINDS`.
        params: Sorted ``(name, value)`` integer parameters (hashable,
            so specs can key caches and ride in frozen job records).
    """

    kind: str
    params: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse ``"kind"`` or ``"kind:key=val,key=val"``.

        Raises:
            ChaosError: on an unknown kind or malformed parameter.
        """
        text = text.strip()
        kind, _, raw_params = text.partition(":")
        kind = kind.strip()
        if kind not in KINDS:
            raise ChaosError(
                f"unknown chaos kind {kind!r}; known: {', '.join(KINDS)}")
        params = []
        if raw_params.strip():
            for item in raw_params.split(","):
                name, sep, value = item.partition("=")
                if not sep:
                    raise ChaosError(f"malformed chaos parameter {item!r} "
                                     f"(want key=value)")
                try:
                    params.append((name.strip(), int(value)))
                except ValueError as exc:
                    raise ChaosError(
                        f"chaos parameter {name.strip()!r} must be an "
                        f"integer, got {value!r}") from exc
        return cls(kind=kind, params=tuple(sorted(params)))

    def get(self, name: str, default: int) -> int:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        rendered = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}:{rendered}"


def spec_from_env(spec: str = "") -> Optional[ChaosSpec]:
    """The spec in force: *spec* when given, else the one named by
    ``REPRO_CHAOS``, else ``None``."""
    raw = spec or os.environ.get(ENV_CHAOS)
    if not raw or not raw.strip():
        return None
    return ChaosSpec.parse(raw)


# ----------------------------------------------------------------------
# Injection
# ----------------------------------------------------------------------

def apply_chaos(machine: Any, spec: ChaosSpec, strict: bool = True) -> Any:
    """Inject *spec* into *machine* (in place); returns the machine.

    Args:
        machine: A built machine model (any of the four).
        spec: What to break.
        strict: When True, a kind that does not apply to this machine
            raises :class:`ChaosError`; when False it is skipped (the
            env-flag path, where one spec meets every machine type).
    """
    applied = _INJECTORS[spec.kind](machine, spec)
    if not applied and strict:
        raise ChaosError(
            f"chaos kind {spec.kind!r} does not apply to "
            f"{type(machine).__name__}")
    if applied:
        # Record active kinds on the machine: the checkpoint manager
        # refuses to snapshot a deliberately-broken machine (the fault
        # wrappers are closures, unpicklable by design) — except under
        # corrupt_checkpoint, whose whole point is exercising the
        # checkpoint write path.
        machine._chaos_kinds = (
            getattr(machine, "_chaos_kinds", ()) + (spec.kind,))
        # Fault wrappers count *calls* (one per cycle with an entry due
        # for queue delivery), so their trigger points are cycle-loop
        # dependent: force the naive per-cycle loop so an injected
        # fault fires at the same cycle on every run.
        if hasattr(machine, "skip_ahead"):
            machine.skip_ahead = False
        tracer = getattr(machine, "tracer", None)
        if tracer is not None:
            # Injection happens at build time, before cycle 0.
            tracer.instant("chaos", 0, detail=str(spec))
    return machine


def maybe_apply_env_chaos(machine: Any, spec: str = "") -> Any:
    """Apply the spec in force (:func:`spec_from_env`), if any, to
    *machine* (non-strict)."""
    parsed = spec_from_env(spec)
    if parsed is not None:
        apply_chaos(machine, parsed, strict=False)
    return machine


def _queues_of(machine: Any, spec: ChaosSpec):
    queues = getattr(machine, "queues", None)
    if not queues:
        return []
    which = spec.get("queue", -1)
    if 0 <= which < len(queues):
        return [queues[which]]
    return list(queues)


def _inject_stuck_queue(machine: Any, spec: ChaosSpec) -> bool:
    queues = _queues_of(machine, spec)
    after = spec.get("after", 0)
    for queue in queues:
        original = queue.deliver
        state = {"delivered": 0}

        def deliver(cycle, _orig=original, _state=state):
            if _state["delivered"] >= after:
                return []
            woken = _orig(cycle)
            _state["delivered"] += 1
            return woken

        queue.deliver = deliver
    return bool(queues)


def _inject_drop_sends(machine: Any, spec: ChaosSpec) -> bool:
    queues = _queues_of(machine, spec)
    every = max(1, spec.get("every", 1))
    for queue in queues:
        original = queue.send
        state = {"count": 0}

        def send(tag, cycle, _orig=original, _state=state):
            _state["count"] += 1
            if _state["count"] % every == 0:
                return None  # message lost in the fabric
            return _orig(tag, cycle)

        queue.send = send
    return bool(queues)


def _inject_duplicate_sends(machine: Any, spec: ChaosSpec) -> bool:
    queues = _queues_of(machine, spec)
    every = max(1, spec.get("every", 2))
    for queue in queues:
        original = queue.send
        state = {"count": 0}

        def send(tag, cycle, _orig=original, _state=state):
            _state["count"] += 1
            _orig(tag, cycle)
            if _state["count"] % every == 0:
                _orig(tag, cycle)  # ghost copy burns bandwidth

        queue.send = send
    return bool(queues)


def _inject_corrupt_specdep(machine: Any, spec: ChaosSpec) -> bool:
    predictor = getattr(machine, "dep_predictor", None)
    if predictor is None:
        return False
    verdict = bool(spec.get("sync", 0))
    predictor.predicts_sync = lambda load_pc: verdict
    return True


def _inject_commit_stall(machine: Any, spec: ChaosSpec) -> bool:
    after = spec.get("after", 100)
    core = getattr(machine, "core", None)
    if core is not None:
        # A single-core machine stalls at commit-group granularity.
        original = core.phase_commit
        state = {"committed": 0}

        def phase_commit(cycle, *args, _orig=original, _state=state,
                         **kwargs):
            if _state["committed"] >= after:
                return []
            retired = _orig(cycle, *args, **kwargs)
            _state["committed"] += len(retired)
            return retired

        core.phase_commit = phase_commit
        return True
    cores = getattr(machine, "cores", None)
    if cores:
        # Fg-STP retires through each core's phase_commit with a budget:
        # capping it stops retirement after exactly ``after`` uops,
        # replicas counted.
        state = {"retired": 0}
        for each in cores:
            def capped_commit(cycle, budget=None, _orig=each.phase_commit,
                              _state=state):
                allowed = after - _state["retired"]
                if allowed <= 0:
                    return []
                if budget is None or budget > allowed:
                    budget = allowed
                retired = _orig(cycle, budget)
                _state["retired"] += len(retired)
                return retired

            each.phase_commit = capped_commit
        return True
    return False


def _flip_last_byte(path) -> None:
    """Flip a file's final byte in place (always lands in the pickle
    payload of a ``repro-ckpt-v1`` file, breaking its sha256)."""
    with open(path, "r+b") as stream:
        stream.seek(-1, os.SEEK_END)
        byte = stream.read(1)
        if not byte:
            return
        stream.seek(-1, os.SEEK_END)
        stream.write(bytes([byte[0] ^ 0xFF]))


def _inject_corrupt_checkpoint(machine: Any, spec: ChaosSpec) -> bool:
    if not hasattr(machine, "checkpoint_sink"):
        return False
    after = spec.get("after", 0)
    inner = machine.checkpoint_sink

    class _CorruptingSink:
        """Writes checkpoints through the real sink, then vandalises
        every file past the first ``after`` of them."""

        def __init__(self):
            self.written = 0

        def save(self, key, checkpoint):
            sink = inner
            if sink is None:
                from ..ckpt.store import CheckpointStore
                sink = CheckpointStore()
            path = sink.save(key, checkpoint)
            self.written += 1
            if self.written > after and path is not None:
                _flip_last_byte(path)
            return path

    machine.checkpoint_sink = _CorruptingSink()
    return True


_INJECTORS = {
    "stuck_queue": _inject_stuck_queue,
    "drop_sends": _inject_drop_sends,
    "duplicate_sends": _inject_duplicate_sends,
    "corrupt_specdep": _inject_corrupt_specdep,
    "commit_stall": _inject_commit_stall,
    "corrupt_checkpoint": _inject_corrupt_checkpoint,
}
