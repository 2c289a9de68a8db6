"""Machine runners: one uniform entry point per machine model.

Every engine experiment goes through :func:`run_machine` so machines
are built fresh per run (no state leaks between measurements) and
traces come from the shared cache.  Checkpoint resume is the machine's
own business (:meth:`repro.ckpt.manager.Checkpointer.begin`), so a run
here resumes exactly as a direct ``Machine.run`` does.
"""

from __future__ import annotations

from typing import Optional

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

    The trace comes from *cache* and the machine from
    :func:`build_machine`; with checkpointing on, the run resumes from
    its latest compatible checkpoint, bit-identical to starting over.
    """
    trace = cache.get(benchmark, config.trace_length, config.seed)
    return build_machine(machine, base, fgstp, **overrides).run(
        trace, workload=benchmark, warmup=config.warmup)


def config_for(name: str) -> CoreParams:
    """Named reference core configuration (``small`` / ``medium``)."""
    return core_config(name)
