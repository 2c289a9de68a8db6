"""ProgramFuzzer generation invariants and campaign behaviour."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.harness.config import ExperimentConfig
from repro.harness.parallel import SweepJob, execute_job, make_job
from repro.integrity.errors import SimulationError
from repro.oracle import (GoldenStream, OracleDivergence, ProgramFuzzer,
                          fuzz_campaign)
from repro.oracle.fuzz import _write_fixture, describe_report
from repro.trace.io import read_trace
from repro.uarch.params import core_config, small_core_config


class TestGeneration:

    def test_deterministic_per_seed_and_index(self):
        assert (ProgramFuzzer(seed=4).generate(2).source
                == ProgramFuzzer(seed=4).generate(2).source)

    def test_distinct_across_indices_and_seeds(self):
        fuzzer = ProgramFuzzer(seed=4)
        assert fuzzer.generate(0).source != fuzzer.generate(1).source
        assert (fuzzer.generate(0).source
                != ProgramFuzzer(seed=5).generate(0).source)

    def test_prologue_pins_the_safety_registers(self):
        source = ProgramFuzzer(seed=0).generate(0).source
        lines = [line.strip() for line in source.splitlines()]
        assert "li r13, 0" in lines    # memory base
        assert "li r15, 8" in lines    # second (aliasing) base
        assert any(line.startswith("li r14, ") for line in lines)
        assert any(line.startswith("fli f9, ") for line in lines)

    def test_generated_programs_terminate_without_faulting(self):
        # Well-formed by construction: bounded loops, non-zero
        # divisors, in-segment addresses.  Shadow execution is the
        # proof — it faults or exhausts the budget otherwise.
        fuzzer = ProgramFuzzer(seed=9, blocks=10)
        for index in range(5):
            program = fuzzer.generate(index).program
            golden = GoldenStream.from_program(program,
                                               max_instructions=50_000)
            assert 0 < len(golden) < 50_000

    def test_data_size_floor(self):
        with pytest.raises(ValueError):
            ProgramFuzzer(data_size=16)


class TestCampaign:

    def test_small_campaign_is_clean(self):
        report = fuzz_campaign(runs=2, seed=2,
                               machines=["single", "fgstp"],
                               base=small_core_config(), blocks=4)
        assert report.clean
        assert report.runs == 2
        assert report.instructions > 0
        text = describe_report(report)
        assert "no divergences" in text

    def test_a_hang_is_recorded_not_raised(self, tmp_path, monkeypatch):
        """A run that hangs is a failure like a divergence: recorded
        with its class, then shrunk into a fixture."""
        monkeypatch.setenv("REPRO_CHAOS", "stuck_queue:after=0")
        monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
        report = fuzz_campaign(runs=1, machines=("fgstp",), shrink=False)
        [failure] = report.failures
        assert failure.failure_class.startswith("hang:")
        assert failure.fixture is None

        report = fuzz_campaign(runs=1, machines=("fgstp",),
                               fixture_dir=tmp_path)
        [failure] = report.failures
        [sidecar] = tmp_path.glob("*.json")
        assert failure.fixture == str(sidecar)
        meta = json.loads(sidecar.read_text())
        assert meta["failure_class"] == failure.failure_class
        assert 0 < meta["minimized_length"] == failure.minimized_length
        assert len(read_trace(tmp_path / meta["trace"])) \
            == failure.minimized_length

    def test_a_fixture_replays_on_the_job_in_its_sidecar(self, tmp_path,
                                                         monkeypatch):
        """The sidecar holds the failed job — here a medium core and the
        chaos spec its few records need to hang — and the fixture's
        trace is that job's."""
        monkeypatch.setenv("REPRO_CHAOS", "stuck_queue:after=0")
        monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
        report = fuzz_campaign(runs=2, seed=1, machines=("fgstp",),
                               base=core_config("medium"),
                               fixture_dir=tmp_path)
        [failure] = report.failures  # fuzz_1_0 never crosses the queues
        meta = json.loads(Path(failure.fixture).read_text())
        assert meta["job"]["core"]["name"] == "medium"
        assert meta["job"]["chaos"] == "stuck_queue:after=0"
        monkeypatch.delenv("REPRO_CHAOS")
        with pytest.raises(SimulationError) as excinfo:
            execute_job(SweepJob.from_dict(meta["job"]),
                        read_trace(tmp_path / meta["trace"]))
        assert excinfo.value.failure_class == meta["failure_class"]

    def test_report_counts_failures_and_names_unshrunk_ones(self,
                                                            monkeypatch,
                                                            capsys):
        monkeypatch.setenv("REPRO_CHAOS", "stuck_queue:after=0")
        monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
        assert main(["fuzz", "--runs", "1", "--machines", "fgstp",
                     "--no-shrink", "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "  1 failure(s):" in out
        assert "fuzz_1_0 on fgstp: hang:intercore (not shrunk)" in out

    @pytest.mark.fuzz
    def test_nightly_scale_campaign_all_machines(self):
        report = fuzz_campaign(runs=10, seed=0,
                               base=small_core_config(), blocks=8)
        assert report.clean, describe_report(report)


class TestFixtures:

    def test_write_fixture_round_trips(self, tmp_path):
        fuzzer = ProgramFuzzer(seed=6, blocks=4)
        generated = fuzzer.generate(0)
        golden = GoldenStream.from_program(generated.program)
        divergence = OracleDivergence(
            "fgstp: commit-stream divergence (order): skipped seq 3",
            machine="fgstp", detail="order")
        job = make_job("fgstp", generated.name, small_core_config(),
                       ExperimentConfig(trace_length=len(golden), warmup=0),
                       oracle=True)
        sidecar = _write_fixture(tmp_path, generated, job,
                                 divergence, golden.records[:5])
        meta = json.loads(sidecar.read_text())
        assert meta["failure_class"] == "oracle:order"
        assert SweepJob.from_dict(meta["job"]).key() == job.key()
        assert meta["minimized_length"] == 5
        assert (tmp_path / meta["source"]).read_text() == generated.source
        replayed = read_trace(tmp_path / meta["trace"])
        assert len(replayed) == 5
        assert [r.pc for r in replayed] == \
            [r.pc for r in golden.records[:5]]

    def test_describe_report_lists_failures(self):
        from repro.oracle.fuzz import FuzzFailure, FuzzReport

        report = FuzzReport(runs=1, machines=("single",), failures=[
            FuzzFailure(program="fuzz_0_0", machine="single",
                        failure_class="oracle:memory", message="boom",
                        minimized_length=7)])
        text = describe_report(report)
        assert "1 failure(s)" in text
        assert "oracle:memory" in text
        assert "minimized to 7" in text
