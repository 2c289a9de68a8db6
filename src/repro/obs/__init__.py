"""Observability: per-uop pipeline tracing, metrics, timeline export.

See :mod:`repro.obs.tracer` for the zero-cost-when-off attachment
contract, :mod:`repro.obs.metrics` for the registry built from a
finished result, and :mod:`repro.obs.export` for the
Perfetto/Konata/JSONL exporters.
Documented in ``docs/observability.md``.
"""

from .events import (CHAOS, INSTANT_KINDS, RECONFIG, RECV, SEND, SQUASH,
                     STAGE_NAMES, STEAL, UOP, WATCHDOG, TraceEvent)
from .metrics import Counter, Gauge, MetricsRegistry, metrics_of
from .tracer import DEFAULT_CAPACITY, PipelineTracer

__all__ = [
    "TraceEvent", "PipelineTracer", "MetricsRegistry", "metrics_of",
    "Counter", "Gauge",
    "UOP", "SQUASH", "SEND", "RECV", "STEAL", "RECONFIG", "WATCHDOG",
    "CHAOS", "INSTANT_KINDS", "STAGE_NAMES", "DEFAULT_CAPACITY",
]
