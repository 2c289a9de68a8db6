"""Unified metrics registry: counters and gauges.

The repo's statistics live in per-component dicts
(``CoreStats.as_dict()``, ``CacheHierarchy.stats()``, queue stats, ...)
that a finished run carries in ``SimResult.extra``.  The
:class:`MetricsRegistry` gives them one flat, typed namespace:

* accessors are get-or-create (``counter`` / ``gauge``), so two sites
  naming the same metric share it;
* nested stats dicts are *ingested* (:meth:`MetricsRegistry.ingest`
  flattens nested mappings into dotted names).

:func:`metrics_of` builds a machine's registry from its finished
:class:`~repro.stats.result.SimResult` alone, so machines carry no
registry, a run costs nothing extra, and a result served from the
sweep's result cache has the same metrics as a fresh run.

All metric types are JSON-able via ``as_dict`` and render through
``harness.report.metrics_table``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..stats.cpistack import cpistack_of
from ..stats.result import SimResult


class Counter:
    """Integer count (events, bytes, cycles)."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (e.g. final cycle count, an IPC)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class MetricsRegistry:
    """One named sink for every metric a run produces.

    Metric accessors are get-or-create; asking for an existing name
    with a different type raises ``TypeError`` (two components silently
    sharing a name across types is always a bug).
    """

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    # -- get-or-create accessors ---------------------------------------

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}, not {cls.kind}")
        return metric

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- bulk fill from stats dicts ------------------------------------

    def ingest(self, prefix: str, stats: Mapping[str, Any]) -> None:
        """Flatten a nested stats mapping into dotted-name metrics.

        Integers and booleans become counters, floats become gauges,
        nested mappings recurse; other value types are skipped (the
        stats dicts keep carrying them).
        """
        for key, value in stats.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, Mapping):
                self.ingest(name, value)
            elif isinstance(value, bool):
                counter = self.counter(name)
                counter.value = int(value)
            elif isinstance(value, int):
                counter = self.counter(name)
                counter.value = value
            elif isinstance(value, float):
                self.gauge(name).set(value)

    # -- export ---------------------------------------------------------

    def as_dict(self) -> Dict[str, dict]:
        """``name -> metric dict``, sorted by name (JSON-able)."""
        return {name: self._metrics[name].as_dict()
                for name in sorted(self._metrics)}

    def collect(self) -> Dict[str, float]:
        """``name -> scalar``, sorted by name."""
        return {name: self._metrics[name].value
                for name in sorted(self._metrics)}


#: Result ``extra`` fields each machine's registry carries, keyed by
#: ``SimResult.machine``.  Fg-STP adds one ``core<i>`` subtree per core
#: and the adaptive machine its ``adaptive.*`` counters.
_EXTRA_FIELDS = {
    "single": ("core", "caches", "branch", "fetch"),
    "corefusion": ("core", "caches", "branch", "fetch"),
    "fgstp": ("partition", "queues", "squashes", "squashed_uops",
              "branch", "caches"),
    "fgstp-adaptive": (),
}


def metrics_of(result: SimResult) -> MetricsRegistry:
    """The metrics registry of a finished run, built from *result*.

    Every machine gets the ``sim.cycles``, ``sim.instructions`` and
    ``sim.ipc`` gauges plus its :data:`_EXTRA_FIELDS`, flattened.  The
    statistics in ``extra`` cover the measured window only (warm-up
    resets every counter first), so the registry does too.  An empty
    trace's result carries no statistics and gives an empty registry.

    Raises:
        KeyError: for a machine outside :data:`_EXTRA_FIELDS`.
    """
    fields = _EXTRA_FIELDS[result.machine]
    registry = MetricsRegistry()
    extra = result.extra
    if not extra:
        return registry
    registry.gauge("sim.cycles").set(result.cycles)
    registry.gauge("sim.instructions").set(result.instructions)
    registry.gauge("sim.ipc").set(result.ipc)
    registry.ingest("", {key: extra[key] for key in fields})
    if result.machine == "fgstp":
        for index, stats in enumerate(extra["cores"]):
            registry.ingest(f"core{index}", stats)
    elif result.machine == "fgstp-adaptive":
        stack = cpistack_of(result)
        registry.ingest("adaptive", {
            "regions": len(extra["modes"]),
            "switches": extra["switches"],
            "fgstp_regions": extra["fgstp_regions"],
            "single_regions": extra["single_regions"],
            # Mode switches are the only source of reconfig slots.
            "reconfig_cycles": (0 if stack is None else
                                stack.slots.get("reconfig", 0)
                                // stack.width),
        })
    return registry


__all__ = ["Counter", "Gauge", "MetricsRegistry", "metrics_of"]
