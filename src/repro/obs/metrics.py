"""Metrics of a finished run: one flat, typed namespace.

The repo's statistics live in per-component dicts
(``CoreStats.as_dict()``, ``CacheHierarchy.stats()``, queue stats, ...)
that a finished run carries in ``SimResult.extra``.  :func:`metrics_of`
flattens them into one mapping, sorted by name, from dotted names
(``caches.l1d.accesses``) to ``{"type": "counter" | "gauge", "value":
...}``.

The metrics are built from the finished
:class:`~repro.stats.result.SimResult` alone, so machines carry no
metrics, a run costs nothing extra, and a result served from the
sweep's result cache has the same metrics as a fresh run.  The mapping
is JSON-able and renders through ``harness.report.metrics_table``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from ..stats.cpistack import cpistack_of
from ..stats.result import SimResult

#: One metric: ``{"type": "counter" | "gauge", "value": number}``.
Metric = Dict[str, Any]


def _flatten(prefix: str, stats: Mapping[str, Any],
             metrics: Dict[str, Metric]) -> None:
    """Add *stats* to *metrics* under dotted names.

    Integers and booleans become counters, floats become gauges,
    nested mappings recurse; other value types are skipped (the stats
    dicts keep carrying them).
    """
    for key, value in stats.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            _flatten(name, value, metrics)
        elif isinstance(value, int):
            metrics[name] = {"type": "counter", "value": int(value)}
        elif isinstance(value, float):
            metrics[name] = {"type": "gauge", "value": value}


#: Result ``extra`` fields each machine's metrics carry, keyed by
#: ``SimResult.machine``.  Fg-STP adds one ``core<i>`` subtree per core
#: and the adaptive machine its ``adaptive.*`` counters.
_EXTRA_FIELDS = {
    "single": ("core", "caches", "branch", "fetch"),
    "corefusion": ("core", "caches", "branch", "fetch"),
    "fgstp": ("partition", "queues", "squashes", "squashed_uops",
              "branch", "caches"),
    "fgstp-adaptive": (),
}


def metrics_of(result: SimResult) -> Dict[str, Metric]:
    """The metrics of a finished run, built from *result*.

    Every machine gets the ``sim.cycles``, ``sim.instructions`` and
    ``sim.ipc`` gauges plus its :data:`_EXTRA_FIELDS`, flattened.  The
    statistics in ``extra`` cover the measured window only (warm-up
    resets every counter first), so the metrics do too.  An empty
    trace's result carries no statistics and gives no metrics.

    Raises:
        KeyError: for a machine outside :data:`_EXTRA_FIELDS`.
    """
    fields = _EXTRA_FIELDS[result.machine]
    extra = result.extra
    if not extra:
        return {}
    metrics = {f"sim.{name}": {"type": "gauge", "value": value}
               for name, value in (("cycles", result.cycles),
                                   ("instructions", result.instructions),
                                   ("ipc", result.ipc))}
    _flatten("", {key: extra[key] for key in fields}, metrics)
    if result.machine == "fgstp":
        for index, stats in enumerate(extra["cores"]):
            _flatten(f"core{index}", stats, metrics)
    elif result.machine == "fgstp-adaptive":
        stack = cpistack_of(result)
        _flatten("adaptive", {
            "regions": len(extra["modes"]),
            "switches": extra["switches"],
            "fgstp_regions": extra["fgstp_regions"],
            "single_regions": extra["single_regions"],
            # Mode switches are the only source of reconfig slots.
            "reconfig_cycles": (0 if stack is None else
                                stack.slots.get("reconfig", 0)
                                // stack.width),
        }, metrics)
    return dict(sorted(metrics.items()))


__all__ = ["metrics_of"]
