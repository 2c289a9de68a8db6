"""Unit tests for the harness runners."""

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.parallel import execute_job, make_job, run_suites
from repro.harness.runners import MACHINES, build_machine
from repro.uarch.params import small_core_config
from repro.workloads.generator import generate_trace

QUICK = ExperimentConfig(trace_length=1200, warmup=400)


def test_build_machine_variants():
    base = small_core_config()
    for name in MACHINES:
        machine = build_machine(name, base)
        assert hasattr(machine, "run")


def test_build_machine_unknown():
    with pytest.raises(ValueError, match="unknown machine"):
        build_machine("quantum", small_core_config())


@pytest.mark.parametrize("machine", MACHINES)
def test_warmup_consuming_the_whole_trace_raises(machine):
    trace = generate_trace("gcc", 1000, 1)
    model = build_machine(machine, small_core_config())
    with pytest.raises(ValueError,
                       match="warmup 1000 consumes the whole 1000-record"):
        model.run(trace, workload="gcc", warmup=1000)


def test_run_machine_returns_result():
    result = execute_job(make_job("single", "gcc", small_core_config(),
                                  QUICK))
    assert result.workload == "gcc"
    assert result.instructions == QUICK.trace_length - QUICK.warmup


def test_run_suite_respects_benchmark_filter():
    config = QUICK.with_(benchmarks=["gcc", "mcf"])
    results = run_suites(("single",), small_core_config(), config)["single"]
    assert sorted(results) == ["gcc", "mcf"]


def test_run_suite_defaults_to_full_suite():
    config = QUICK.with_(trace_length=400, warmup=100)
    results = run_suites(("single",), small_core_config(), config)["single"]
    assert len(results) == 20


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trace_length=0)
    with pytest.raises(ValueError):
        ExperimentConfig(trace_length=100, warmup=100)
    with pytest.raises(ValueError):
        ExperimentConfig(trace_length=100, warmup=-1)


def test_experiment_config_with():
    config = QUICK.with_(seed=9)
    assert config.seed == 9
    assert QUICK.seed == 1
