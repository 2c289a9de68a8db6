"""Machine construction: one uniform builder per machine model.

Every run builds its machine fresh (no state leaks between
measurements): a sweep job through
:func:`repro.harness.parallel.execute_job`, which calls
:func:`new_machine`, and other harness paths through
:func:`build_machine`.  Checkpoint resume is the machine's own business
(:meth:`repro.ckpt.manager.Checkpointer.begin`), so every run resumes
exactly as a direct ``Machine.run`` does.
"""

from __future__ import annotations

from typing import Optional

from ..corefusion.machine import CoreFusionMachine
from ..fgstp.adaptive import AdaptiveFgStpMachine
from ..fgstp.orchestrator import FgStpMachine
from ..fgstp.params import FgStpParams
from ..integrity.chaos import maybe_apply_env_chaos
from ..uarch.params import CoreParams
from ..uarch.pipeline.machine import SingleCoreMachine

#: Machines the harness knows how to build.
MACHINES = ("single", "corefusion", "fgstp", "fgstp-adaptive")


def build_machine(machine: str, base: CoreParams,
                  fgstp: Optional[FgStpParams] = None,
                  **overrides):
    """:func:`new_machine` with the ``REPRO_CHAOS`` fault-injection
    spec, when set, applied (kinds inapplicable to the machine are
    skipped), so every harness path can be chaos-tested without code
    changes."""
    return maybe_apply_env_chaos(new_machine(machine, base, fgstp,
                                             **overrides))


def new_machine(machine: str, base: CoreParams,
                fgstp: Optional[FgStpParams] = None, **overrides):
    """Construct a fresh *machine* (one of :data:`MACHINES`, else
    ``ValueError``) on the core *base*, with Fg-STP parameters *fgstp*
    (fgstp machines only) and machine constructor *overrides*."""
    if machine == "single":
        return SingleCoreMachine(base, **overrides)
    if machine == "corefusion":
        return CoreFusionMachine(base, **overrides)
    if machine == "fgstp":
        return FgStpMachine(base, fgstp, **overrides)
    if machine == "fgstp-adaptive":
        return AdaptiveFgStpMachine(base, fgstp, **overrides)
    raise ValueError(f"unknown machine {machine!r}; known: {MACHINES}")
