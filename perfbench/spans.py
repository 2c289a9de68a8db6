"""Outside-in host-time attribution for one traced simulation.

The simulator carries no instrumentation of its own.  A traced run
replaces selected public methods (and two module-level ``warm_state``
bindings) with timing wrappers for the duration of a ``with`` block and
restores the originals afterwards, so the simulator code is unchanged
and its results stay bit-identical.  Wrapping happens on the *classes*,
which also covers objects built inside ``run`` (the adaptive machine's
region machines, the queues and cores built by each machine).

Spans are aggregated by name as they close rather than stored one by
one: a traced fgstp run makes millions of wrapped calls.  A span's self
time is its duration minus the durations of the spans nested directly
inside it, so shares of self time never double count.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple, Union

#: A span name, or a function of the wrapped call's first argument
#: (the instance) that returns one.
SpanName = Union[str, Callable[[object], str]]

#: ``(owner, attribute, make_wrapper)``: :func:`patched` replaces
#: ``owner.attribute`` with ``make_wrapper(original)``.
Patch = Tuple[object, str, Callable[[Callable], Callable]]


class SpanRecorder:
    """Self time and call count per span name.

    Args:
        clock: Monotonic clock in seconds (injectable for tests).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # One accumulator per open span: time covered by its children.
        self._open: List[float] = []

    def wrap(self, name: SpanName, function: Callable) -> Callable:
        """*function* with every call recorded as a span called *name*."""
        clock = self.clock
        open_spans = self._open
        self_s = self.self_s
        calls = self.calls
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            label = fixed if fixed is not None else name(args[0])
            open_spans.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[label] += elapsed - open_spans.pop()
                calls[label] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        return wrapper

    def merge(self, other: "SpanRecorder") -> None:
        """Add *other*'s totals into this recorder."""
        for label, seconds in other.self_s.items():
            self.self_s[label] += seconds
        for label, count in other.calls.items():
            self.calls[label] += count


@contextmanager
def patched(patches: List[Patch]) -> Iterator[None]:
    """Apply *patches* in order for the block, then restore the exact
    originals (later patches wrap earlier ones on the same attribute)."""
    saved = []
    try:
        for owner, attribute, make_wrapper in patches:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, make_wrapper(original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def layer_patches(recorder: SpanRecorder) -> List[Patch]:
    """Span wrappers on the public layer boundaries a traced run times.

    Each span is named after the layer metric it feeds; the machine
    ``run`` spans carry the machine shells' own self time.
    """
    from repro.corefusion.machine import CoreFusionMachine
    from repro.fgstp import orchestrator
    from repro.fgstp.adaptive import AdaptiveFgStpMachine
    from repro.fgstp.comm import InterCoreQueue
    from repro.fgstp.partitioner import Partitioner
    from repro.uarch.branch.btb import FrontEndPredictor
    from repro.uarch.cache.hierarchy import CacheHierarchy
    from repro.uarch.pipeline import machine
    from repro.uarch.pipeline.core import CycleCore

    boundaries = [
        (machine.SingleCoreMachine, "run", lambda self: self.machine_label),
        (CoreFusionMachine, "run", "corefusion"),
        (orchestrator.FgStpMachine, "run", "orchestrator"),
        (AdaptiveFgStpMachine, "run", "adaptive"),
        (Partitioner, "partition", "partitioner"),
        (InterCoreQueue, "deliver", "comm.deliver"),
        (InterCoreQueue, "send", "comm.send"),
        (CycleCore, "phase_commit", "core.commit"),
        (CycleCore, "phase_complete", "core.complete"),
        (CycleCore, "phase_issue", "core.issue"),
        (CycleCore, "phase_dispatch", "core.dispatch"),
        (CycleCore, "attribute_cycle", "core.cpi_attr"),
        (CycleCore, "next_event", "core.skip_ahead"),
        (CycleCore, "charge_idle_cycles", "core.skip_ahead"),
        (CacheHierarchy, "load", "cache"),
        (CacheHierarchy, "store", "cache"),
        (CacheHierarchy, "fetch", "cache"),
        (FrontEndPredictor, "predict", "branch"),
        (FrontEndPredictor, "update", "branch"),
        # Imported by name into both machine modules.
        (machine, "warm_state", "warmup"),
        (orchestrator, "warm_state", "warmup"),
    ]
    return [(owner, attribute,
             lambda original, span=span: recorder.wrap(span, original))
            for owner, attribute, span in boundaries]


#: Every span name :func:`layer_patches` records, in table order.
SPAN_NAMES = ("orchestrator", "partitioner", "comm.deliver", "comm.send",
              "adaptive", "single", "corefusion", "core.commit",
              "core.complete", "core.issue", "core.dispatch",
              "core.cpi_attr", "core.skip_ahead", "cache", "branch",
              "warmup")
