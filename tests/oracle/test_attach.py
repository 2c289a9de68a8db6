"""Every machine under the oracle: clean runs, warm-up, injection,
ddmin integration, and the 1k-instruction fuzz acceptance run."""

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.parallel import execute_job, make_job
from repro.harness.runners import MACHINES
from repro.integrity.minimize import minimize_failure
from repro.oracle import (GoldenStream, OracleDivergence, ProgramFuzzer,
                          run_program_under_oracle, run_trace_under_oracle)
from repro.oracle.mutate import make_mutator
from repro.uarch.params import small_core_config
from repro.workloads.generator import generate_trace


@pytest.fixture(scope="module")
def base():
    return small_core_config()


@pytest.fixture(scope="module")
def trace():
    return generate_trace("gcc", 600, seed=5)


@pytest.mark.parametrize("machine", MACHINES)
def test_clean_run_retires_exactly_the_trace(machine, base, trace):
    result = run_trace_under_oracle(machine, trace, base,
                                    workload="gcc")
    assert result.instructions == len(trace)
    assert result.extra["oracle"] == {"checked": len(trace),
                                      "golden_source": "trace"}


@pytest.mark.parametrize("machine", ["single", "fgstp"])
def test_warmup_prefix_is_not_checked(machine, base, trace):
    result = run_trace_under_oracle(machine, trace, base,
                                    workload="gcc", warmup=200)
    assert result.extra["oracle"]["checked"] == len(trace) - 200


def test_adaptive_multi_region_stream_is_globally_sequential(base):
    # Force several regions (and thus several clock epochs) and check
    # the shifted-seq shim keeps the stream dense across boundaries.
    trace = generate_trace("gcc", 1200, seed=5)
    result = run_trace_under_oracle(
        "fgstp-adaptive", trace, base, workload="gcc",
        sample_instructions=100, region_instructions=300)
    assert result.extra["oracle"]["checked"] == len(trace)


def test_adaptive_with_warmup_and_regions(base):
    trace = generate_trace("mcf", 1000, seed=3)
    result = run_trace_under_oracle(
        "fgstp-adaptive", trace, base, workload="mcf", warmup=200,
        sample_instructions=100, region_instructions=250)
    assert result.extra["oracle"]["checked"] == len(trace) - 200


def test_injected_mutation_is_caught_with_replay_context(base, trace):
    with pytest.raises(OracleDivergence) as exc:
        run_trace_under_oracle(
            "single", trace, base, workload="gcc",
            mutator=make_mutator("dropped-commit", 50),
            context={"benchmark": "gcc", "oracle": True})
    assert exc.value.detail == "order"
    assert exc.value.context["oracle"] is True


def test_run_program_under_oracle_reports_per_machine(base):
    program = ProgramFuzzer(seed=3, blocks=6).generate(0).program
    golden, results = run_program_under_oracle(
        program, base, machines=["single", "corefusion"])
    assert golden.source == "program"
    assert set(results) == {"single", "corefusion"}
    for result in results.values():
        assert result.extra["oracle"]["checked"] == len(golden)


def test_minimizer_shrinks_an_oracle_divergence(base):
    # A dropped store at seq 30: ddmin must reproduce the oracle:order
    # failure and shrink the 200-record trace to a small fixture.  A
    # fresh (stateful) mutator is built per probe.
    trace = generate_trace("gcc", 200, seed=5)
    index = next(r.seq for r in trace if r.seq >= 30 and r.is_store)

    def run(candidate):
        return run_trace_under_oracle(
            "single", list(candidate), base, workload="probe",
            mutator=make_mutator("dropped-commit", index))

    result = minimize_failure(trace, run)
    assert result.reproduced
    assert result.failure_class == "oracle:order"
    # The mutation site pins the floor: everything after it is gone.
    assert result.minimized_length <= index + 2
    assert result.last_error.detail == "order"


def test_oracle_job_probe_passes_on_clean_traces(base, trace):
    """An oracle job run on a candidate trace (a minimizer probe)
    checks that candidate's trace fidelity."""
    job = make_job("single", "gcc", base,
                   ExperimentConfig(trace_length=600, warmup=0, seed=5),
                   oracle=True)
    result = execute_job(job, trace[:100])
    assert result.extra["oracle"]["checked"] == 100


def test_acceptance_1k_instruction_fuzz_program_all_machines(base):
    # Issue acceptance: a fuzz-generated program with >= 1000 dynamic
    # instructions runs clean through the interpreter and all four
    # machines under the oracle.
    program = ProgramFuzzer(seed=1, blocks=180).generate(0).program
    golden = GoldenStream.from_program(program)
    assert len(golden) >= 1000
    for machine in MACHINES:
        result = run_trace_under_oracle(
            machine, golden.records, base, golden=golden,
            workload="fuzz-acceptance")
        assert result.extra["oracle"]["checked"] == len(golden)
