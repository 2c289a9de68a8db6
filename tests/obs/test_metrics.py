"""The metrics built from a finished result."""

import json

import pytest

from repro.harness.runners import MACHINES, build_machine
from repro.obs.metrics import metrics_of
from repro.stats.result import SimResult
from repro.workloads.generator import generate_trace


def _values(metrics):
    """``name -> value`` of :func:`metrics_of`'s mapping."""
    return {name: metric["value"] for name, metric in metrics.items()}


def test_ingest_flattens_nested_stats():
    """Integers and booleans become counters, floats gauges, mappings
    recurse into dotted names, and other values are skipped; the sim
    gauges join, and the mapping is sorted by name."""
    result = SimResult(machine="single", workload="w", config="small",
                       cycles=10, instructions=5, extra={
                           "core": {"hits": 7, "rate": 0.5,
                                    "enabled": True, "skipped": "text",
                                    "inner": {"deep": 3}},
                           "caches": {}, "branch": {}, "fetch": {}})
    metrics = metrics_of(result)
    assert list(metrics) == sorted(metrics)
    assert metrics == {
        "core.enabled": {"type": "counter", "value": 1},
        "core.hits": {"type": "counter", "value": 7},
        "core.inner.deep": {"type": "counter", "value": 3},
        "core.rate": {"type": "gauge", "value": 0.5},
        "sim.cycles": {"type": "gauge", "value": 10},
        "sim.instructions": {"type": "gauge", "value": 5},
        "sim.ipc": {"type": "gauge", "value": 0.5},
    }
    assert type(metrics["core.enabled"]["value"]) is int


def test_warmup_reset_covers_registry(small_config):
    """The metrics reflect the measured window only: every value is the
    result's own (post-warm-up) statistic."""
    trace = generate_trace("gcc", 1200, 1)
    result = build_machine("single", small_config).run(
        trace, workload="gcc", warmup=400)
    flat = _values(metrics_of(result))
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
    flat = _values(metrics_of(result))
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
    flat = _values(metrics_of(result))
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
    assert json.dumps(metrics_of(cached), sort_keys=True) == \
        json.dumps(fresh, sort_keys=True)


def test_metrics_of_empty_trace_is_empty(small_config):
    result = build_machine("single", small_config).run([], workload="none")
    assert metrics_of(result) == {}
