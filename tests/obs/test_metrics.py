"""MetricsRegistry semantics and the registry built from a result."""

import json

import pytest

from repro.harness.runners import MACHINES, build_machine
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, metrics_of
from repro.stats.result import SimResult
from repro.workloads.generator import generate_trace


def test_get_or_create_shares_instances():
    registry = MetricsRegistry()
    counter = registry.counter("a.b")
    counter.add(3)
    assert registry.counter("a.b") is counter
    assert registry.counter("a.b").value == 3
    assert "a.b" in registry and len(registry) == 1
    assert registry.names() == ["a.b"]


def test_kind_conflict_raises_typeerror():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    registry.gauge("g")
    with pytest.raises(TypeError):
        registry.counter("g")


def test_ingest_flattens_nested_stats():
    registry = MetricsRegistry()
    registry.ingest("root", {
        "hits": 7,
        "rate": 0.5,
        "enabled": True,
        "inner": {"deep": 3},
        "skipped": "text",
    })
    flat = registry.collect()
    assert flat["root.hits"] == 7
    assert flat["root.rate"] == 0.5
    assert flat["root.enabled"] == 1
    assert flat["root.inner.deep"] == 3
    assert "root.skipped" not in flat
    assert registry.get("root.hits").kind == "counter"
    assert registry.get("root.rate").kind == "gauge"


def test_as_dict_and_collect_shapes():
    registry = MetricsRegistry()
    registry.counter("c").add(2)
    registry.gauge("g").set(1.5)
    payload = registry.as_dict()
    assert payload["c"] == {"type": "counter", "value": 2}
    assert payload["g"] == {"type": "gauge", "value": 1.5}
    assert registry.collect() == {"c": 2, "g": 1.5}


def test_warmup_reset_covers_registry(small_config):
    """The registry reflects the measured window only: every value is
    the result's own (post-warm-up) statistic."""
    trace = generate_trace("gcc", 1200, 1)
    result = build_machine("single", small_config).run(
        trace, workload="gcc", warmup=400)
    flat = metrics_of(result).collect()
    assert flat["caches.l1d.accesses"] == \
        result.extra["caches"]["l1d"]["accesses"]
    assert flat["core.committed"] == result.extra["core"]["committed"]
    assert flat["fetch.fetched"] == result.extra["fetch"]["fetched"]
    assert flat["sim.cycles"] == result.cycles
    assert flat["sim.instructions"] == result.instructions == 800
    assert flat["sim.ipc"] == result.ipc


def test_warmup_reset_covers_fgstp_registry(small_config):
    trace = generate_trace("gcc", 1200, 1)
    result = build_machine("fgstp", small_config).run(
        trace, workload="gcc", warmup=400)
    flat = metrics_of(result).collect()
    assert flat["sim.cycles"] == result.cycles
    assert flat["sim.instructions"] == result.instructions == 800
    assert flat["squashes"] == result.extra["squashes"]
    assert flat["caches.core1.l1d.accesses"] == \
        result.extra["caches"]["core1"]["l1d"]["accesses"]
    for index, stats in enumerate(result.extra["cores"]):
        assert flat[f"core{index}.committed"] == stats["committed"]
    # The per-run configuration and stall counters stay out.
    assert not any(name.startswith(("fgstp_params.", "stalls.", "cores."))
                   for name in flat)


def test_adaptive_registry_counts_regions_and_reconfig(small_config):
    """Every mode switch adds the reconfiguration penalty, and nothing
    else charges reconfig cycles."""
    trace = generate_trace("mcf", 2400, 1)
    result = build_machine(
        "fgstp-adaptive", small_config, sample_instructions=300,
        region_instructions=600, reconfigure_penalty=37).run(
        trace, workload="mcf", warmup=400)
    flat = metrics_of(result).collect()
    assert result.extra["switches"] >= 1
    assert flat["adaptive.switches"] == result.extra["switches"]
    assert flat["adaptive.reconfig_cycles"] == \
        37 * result.extra["switches"]
    assert flat["adaptive.regions"] == len(result.extra["modes"])
    assert flat["adaptive.fgstp_regions"] + \
        flat["adaptive.single_regions"] == flat["adaptive.regions"]
    assert flat["sim.instructions"] == result.instructions == 2000


@pytest.mark.parametrize("machine", MACHINES)
def test_metrics_of_survives_json_round_trip(machine, small_config):
    """A result served from the sweep's result cache (a JSON round trip
    through ``SimResult.from_dict``) has exactly the metrics of the
    fresh result."""
    # Short regions so the adaptive run switches mode (asserted).
    overrides = ({"sample_instructions": 300, "region_instructions": 600}
                 if machine == "fgstp-adaptive" else {})
    trace = generate_trace("mcf", 2400, 1)
    result = build_machine(machine, small_config, **overrides).run(
        trace, workload="mcf", warmup=400)
    if machine == "fgstp-adaptive":
        assert result.extra["switches"] >= 1
    cached = SimResult.from_dict(json.loads(json.dumps(result.as_dict())))
    fresh = metrics_of(result)
    assert len(fresh) > 3
    assert json.dumps(metrics_of(cached).as_dict(), sort_keys=True) == \
        json.dumps(fresh.as_dict(), sort_keys=True)


def test_metrics_of_empty_trace_is_empty(small_config):
    result = build_machine("single", small_config).run([], workload="none")
    assert len(metrics_of(result)) == 0


def test_metric_classes_export_kind():
    assert Counter("c").kind == "counter"
    assert Gauge("g").kind == "gauge"
