"""Machine runners: one uniform entry point per machine model.

Every experiment goes through :func:`run_machine` so machines are built
fresh per run (no state leaks between measurements) and traces come from
the shared cache.
"""

from __future__ import annotations

from typing import Optional

from ..ckpt.manager import resolve_interval
from ..ckpt.state import CheckpointError, trace_fingerprint
from ..ckpt.store import CheckpointStore, run_key
from ..corefusion.machine import CoreFusionMachine
from ..fgstp.adaptive import AdaptiveFgStpMachine
from ..fgstp.orchestrator import FgStpMachine
from ..fgstp.params import FgStpParams
from ..integrity.chaos import maybe_apply_env_chaos
from ..stats.result import SimResult
from ..uarch.params import CoreParams, core_config
from ..uarch.pipeline.machine import SingleCoreMachine
from ..workloads.suite import DEFAULT_CACHE, TraceCache
from .config import ExperimentConfig

#: Machines the harness knows how to build.
MACHINES = ("single", "corefusion", "fgstp", "fgstp-adaptive")


def build_machine(machine: str, base: CoreParams,
                  fgstp: Optional[FgStpParams] = None,
                  **overrides):
    """Construct a fresh machine model.

    Args:
        machine: One of :data:`MACHINES`.
        base: Per-core configuration.
        fgstp: Fg-STP parameters (fgstp machines only).
        **overrides: Machine-specific constructor arguments (e.g. Core
            Fusion overhead knobs).

    The ``REPRO_CHAOS`` fault-injection spec, when set, is applied to
    the freshly built machine (kinds inapplicable to it are skipped),
    so every harness path — ``repro simulate``, sweeps, validation —
    can be chaos-tested without code changes.

    Raises:
        ValueError: on an unknown machine name.
    """
    if machine == "single":
        model = SingleCoreMachine(base, **overrides)
    elif machine == "corefusion":
        model = CoreFusionMachine(base, **overrides)
    elif machine == "fgstp":
        model = FgStpMachine(base, fgstp, **overrides)
    elif machine == "fgstp-adaptive":
        model = AdaptiveFgStpMachine(base, fgstp, **overrides)
    else:
        raise ValueError(f"unknown machine {machine!r}; known: {MACHINES}")
    return maybe_apply_env_chaos(model)


def run_machine(machine: str, benchmark: str, base: CoreParams,
                config: ExperimentConfig,
                fgstp: Optional[FgStpParams] = None,
                cache: TraceCache = DEFAULT_CACHE,
                **overrides) -> SimResult:
    """Run *benchmark* on *machine* and return the result.

    When checkpointing is active for this run (a positive
    ``checkpoint_interval`` override or ``REPRO_CHECKPOINT_INTERVAL``)
    and a compatible on-disk checkpoint exists, simulation auto-resumes
    from the snapshot — bit-identical to starting over, minus the
    already-simulated cycles.  Resume is skipped for observed runs
    (tracer / commit hook / metrics attached): a mid-run attachment
    would see only the resumed suffix of the event stream.
    """
    trace = cache.get(benchmark, config.trace_length, config.seed)
    model = build_machine(machine, base, fgstp, **overrides)
    resume_from = _auto_resume(model, machine, benchmark, trace,
                               config.warmup, overrides)
    try:
        return model.run(trace, workload=benchmark, warmup=config.warmup,
                         resume_from=resume_from)
    except CheckpointError:
        # Stale or incompatible snapshot (e.g. serialization drift):
        # fall back to a clean from-scratch run on a fresh machine.
        model = build_machine(machine, base, fgstp, **overrides)
        return model.run(trace, workload=benchmark, warmup=config.warmup)


def _auto_resume(model, machine: str, benchmark: str, trace,
                 warmup: int, overrides: dict):
    """The on-disk checkpoint to resume *model* from, or ``None``."""
    if resolve_interval(getattr(model, "checkpoint_interval", None)) <= 0:
        return None
    if getattr(model, "_chaos_kinds", ()):
        return None
    if any(overrides.get(name) is not None
           for name in ("tracer", "commit_hook", "metrics")):
        return None
    sink = getattr(model, "checkpoint_sink", None)
    store = sink if isinstance(sink, CheckpointStore) else CheckpointStore()
    key = run_key(machine, benchmark, warmup,
                  model.checkpoint_params_key(), trace_fingerprint(trace))
    return store.load(key)


def config_for(name: str) -> CoreParams:
    """Named reference core configuration (``small`` / ``medium``)."""
    return core_config(name)
