"""Metamorphic relations of the validation battery: no golden model,
just cross-run physics."""

import pytest

from repro.uarch.params import small_core_config
from repro.validation import run_battery


@pytest.fixture(scope="module")
def results():
    return run_battery("gcc", 1000, 1, small_core_config())


def test_window_scaling_single_core(results):
    result = results["window-scaling-single"]
    assert result.passed, result.detail
    assert result.name == "window-scaling-single"


def test_window_scaling_fgstp(results):
    result = results["window-scaling-fgstp"]
    assert result.passed, result.detail


def test_intercore_latency_monotonic(results):
    result = results["intercore-latency-monotonic"]
    assert result.passed, result.detail
    assert "cycles" in result.detail


@pytest.mark.slow
def test_full_battery_on_longer_traces():
    # Looser slack than the default 2%: the partitioner is
    # latency-aware, so raising the queue latency can flip it to a
    # different (occasionally better) partition — milc lands ~2.6%
    # faster at latency 3 than 1.  The relation still bounds the trend.
    for benchmark in ("gcc", "milc", "mcf"):
        results = run_battery(benchmark, 2500, 1, small_core_config(),
                              tolerance=0.05)
        for result in results.values():
            assert result.passed, f"{benchmark}: {result}"
