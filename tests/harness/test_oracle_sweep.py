"""Oracle integration with the parallel sweep engine."""

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.parallel import (ExperimentEngine, execute_job,
                                    make_job, matrix_jobs)
from repro.integrity.minimize import replay_run_fn
from repro.uarch.params import core_config
from repro.workloads.generator import generate_trace

LENGTH = 400
WARMUP = 100


def _job(machine="single", benchmark="gcc", oracle=False):
    return make_job(machine, benchmark, core_config("small"),
                    ExperimentConfig(trace_length=LENGTH, warmup=WARMUP),
                    oracle=oracle)


class TestJobIdentity:

    def test_oracle_field_changes_the_cache_key(self):
        plain, checked = _job(), _job(oracle=True)
        assert plain.key() != checked.key()
        assert "oracle" not in plain.name
        assert checked.name.endswith("/oracle")

    def test_plain_keys_are_stable_without_oracle(self):
        # Pre-oracle cache entries must stay valid: the oracle marker
        # only enters the key when set.
        assert _job().key() == _job().key()


class TestPromotion:

    def _jobs(self):
        return matrix_jobs(benchmarks=["gcc", "mcf", "hmmer"],
                           seeds=[1, 2], machines=["single", "fgstp"],
                           configs=("small",), trace_length=LENGTH,
                           warmup=WARMUP)

    def test_sample_zero_promotes_nothing(self):
        engine = ExperimentEngine(max_workers=1, oracle_sample=0.0)
        assert not any(
            engine._promote(j, "oracle", engine.oracle_sample).oracle
            for j in self._jobs())

    def test_sample_one_promotes_everything(self):
        engine = ExperimentEngine(max_workers=1, oracle_sample=1.0)
        assert all(engine._promote(j, "oracle", engine.oracle_sample).oracle
                   for j in self._jobs())

    def test_promotion_is_deterministic_per_job(self):
        first = ExperimentEngine(max_workers=1, oracle_sample=0.5)
        second = ExperimentEngine(max_workers=1, oracle_sample=0.5)
        decisions = [first._promote(j, "oracle", first.oracle_sample).oracle
                     for j in self._jobs()]
        assert decisions == [
            second._promote(j, "oracle", second.oracle_sample).oracle
            for j in self._jobs()]

    def test_already_promoted_jobs_pass_through(self):
        engine = ExperimentEngine(max_workers=1, oracle_sample=0.0)
        job = _job(oracle=True)
        assert engine._promote(job, "oracle", engine.oracle_sample) is job

    def test_sample_is_clamped(self):
        assert ExperimentEngine(oracle_sample=7.0).oracle_sample == 1.0
        assert ExperimentEngine(oracle_sample=-1.0).oracle_sample == 0.0


class TestExecution:

    def test_oracle_job_checks_every_measured_commit(self):
        result = execute_job(_job(oracle=True))
        assert result.extra["oracle"]["checked"] == LENGTH - WARMUP

    def test_oracle_and_plain_jobs_agree_on_cycles(self):
        # The hook observes; it must not perturb timing.
        plain = execute_job(_job())
        checked = execute_job(_job(oracle=True))
        assert checked.cycles == plain.cycles
        assert checked.instructions == plain.instructions

    @pytest.mark.parametrize("machine", ["fgstp", "corefusion"])
    def test_oracle_jobs_run_on_partitioned_machines(self, machine):
        result = execute_job(_job(machine=machine, oracle=True))
        assert result.extra["oracle"]["checked"] == LENGTH - WARMUP

    def test_sampled_sweep_runs_clean(self):
        jobs = [_job(benchmark=b) for b in ("gcc", "mcf")]
        engine = ExperimentEngine(max_workers=1, oracle_sample=1.0)
        sweep = engine.run(jobs)
        assert sweep.ok
        assert all(job.oracle for job in sweep.jobs)
        for result in sweep.results:
            assert result.extra["oracle"]["checked"] == LENGTH - WARMUP


class TestMinimizerReplay:

    def test_oracle_context_builds_a_checking_probe(self):
        run = replay_run_fn(_job(oracle=True).as_dict())
        result = run(generate_trace("gcc", 80, 1))
        assert result.extra["oracle"]["checked"] == 80

    def test_plain_context_probe_is_unchecked(self):
        run = replay_run_fn(_job().as_dict())
        result = run(generate_trace("gcc", 80, 1))
        assert "oracle" not in result.extra
