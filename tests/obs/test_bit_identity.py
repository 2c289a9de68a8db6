"""The zero-overhead guarantee: tracing must not change results.

Every machine runs twice on the same trace — bare, and with a tracer
attached — and the two ``SimResult``s must be bit-identical.  Sweep
cache keys are covered too: a plain job's key must not change because
trace support exists, and a traced job must never share a cache entry
with a plain one.
"""

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.parallel import make_job
from repro.harness.runners import MACHINES, build_machine
from repro.obs import PipelineTracer
from repro.workloads.generator import generate_trace

_SIZING = dict(length=1200, warmup=400)


@pytest.fixture(scope="module")
def gcc_trace():
    return generate_trace("gcc", _SIZING["length"], 1)


@pytest.mark.parametrize("machine", MACHINES)
def test_traced_run_is_bit_identical(machine, small_config, gcc_trace):
    bare = build_machine(machine, small_config).run(
        gcc_trace, workload="gcc", warmup=_SIZING["warmup"])
    tracer = PipelineTracer()
    observed = build_machine(machine, small_config, tracer=tracer).run(
        gcc_trace, workload="gcc", warmup=_SIZING["warmup"])
    assert observed.as_dict() == bare.as_dict()
    assert tracer.events(), f"{machine}: tracer recorded nothing"


@pytest.mark.parametrize("machine", MACHINES)
def test_sampled_tracer_also_bit_identical(machine, small_config,
                                           gcc_trace):
    bare = build_machine(machine, small_config).run(
        gcc_trace, workload="gcc", warmup=_SIZING["warmup"])
    tracer = PipelineTracer(capacity=64, sample_window=128,
                            sample_period=4)
    observed = build_machine(machine, small_config, tracer=tracer).run(
        gcc_trace, workload="gcc", warmup=_SIZING["warmup"])
    assert observed.as_dict() == bare.as_dict()


def test_plain_job_keys_unchanged_by_trace_field(small_config):
    config = ExperimentConfig(trace_length=1200, warmup=400, seed=1)
    plain = make_job("single", "gcc", small_config, config)
    traced = make_job("single", "gcc", small_config, config, trace=True)
    # A plain job must hash exactly as it did before trace support
    # existed: the field only contributes when set.
    assert plain.trace is False
    assert plain.key() != traced.key()
    assert traced.name.endswith("/trace")
    assert not plain.name.endswith("/trace")
    # Trace and oracle promotions compose into distinct keys.
    both = make_job("single", "gcc", small_config, config, oracle=True,
                    trace=True)
    assert len({plain.key(), traced.key(), both.key()}) == 3
