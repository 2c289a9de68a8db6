"""Tests for markdown report generation and the CLI entry point."""

import json

import pytest

from repro.__main__ import main
from repro.harness.config import ExperimentConfig
from repro.harness.experiments import ExperimentReport
from repro.harness.report import report_to_markdown, run_and_render

TINY = ["--length", "1200", "--warmup", "400",
        "--benchmarks", "gcc", "hmmer"]


def test_report_to_markdown_structure():
    report = ExperimentReport("E1", "title", ["a"], [[1.0]],
                              metrics={"m": 2.0}, notes="a note")
    text = report_to_markdown(report)
    assert text.startswith("### E1 — title")
    assert "```text" in text
    assert "a note" in text


def test_run_and_render_selected():
    text = run_and_render(
        ["E3"], ExperimentConfig(trace_length=1200, warmup=400,
                                 benchmarks=["gcc"]))
    assert "### E3" in text
    assert "trace_length=1200" in text


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "mcf" in out


def test_cli_run(capsys):
    assert main(["run", "E3"] + TINY) == 0
    out = capsys.readouterr().out
    assert "E3" in out and "gcc" in out


def test_cli_simulate(capsys):
    assert main(["simulate", "gcc", "--config", "small",
                 "--length", "1500", "--warmup", "500"]) == 0
    out = capsys.readouterr().out
    assert "fgstp" in out and "speedup" in out


def test_cli_simulate_unknown_benchmark(capsys):
    assert main(["simulate", "nope", "--length", "1000",
                 "--warmup", "100"]) == 2


def test_cli_profile_prints_balanced_stacks(capsys):
    assert main(["simulate", "gcc", "--view", "cpi", "--config", "small",
                 "--length", "1500", "--warmup", "500"]) == 0
    out = capsys.readouterr().out
    # One stack table per machine plus the comparison table.
    assert "gcc on single" in out
    assert "gcc on corefusion" in out
    assert "gcc on fgstp" in out
    assert "gcc: CPI by cause" in out
    assert "retire" in out and "load_miss" in out
    # Each machine's total line restates the exact-sum ledger check.
    assert out.count("measured") == 3


def test_cli_profile_unknown_benchmark_is_usage_error(capsys):
    assert main(["simulate", "nope", "--view", "cpi", "--length", "1000",
                 "--warmup", "100"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_cli_run_unknown_experiment_is_usage_error(capsys):
    """cmd_run used to crash with a KeyError; now exit code 2."""
    assert main(["run", "E999"] + TINY) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_validate_unknown_benchmark_is_usage_error(capsys):
    """cmd_validate used to crash deep in trace generation; now 2."""
    assert main(["validate", "--benchmarks", "nope",
                 "--length", "1000"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "gcc", "--length", "300", "--warmup", "100",
     "--benchmarks", "mcf"],
    # The ids of the views keep the names of the commands they replace.
    pytest.param(["simulate", "gcc", "--view", "cpi", "--length", "300",
                  "--warmup", "100", "--benchmarks", "mcf"],
                 id="profile--benchmarks"),
    pytest.param(["simulate", "gcc", "--view", "timeline", "--length",
                  "300", "--warmup", "100", "--format", "ascii",
                  "--benchmarks", "mcf"],
                 id="timeline--benchmarks"),
    pytest.param(["simulate", "gcc", "--view", "metrics", "--length",
                  "300", "--warmup", "100", "--benchmarks", "mcf"],
                 id="metrics--benchmarks"),
    ["oracle", "gcc", "--length", "300", "--warmup", "100",
     "--benchmarks", "mcf"],
    ["fuzz", "--runs", "0", "--benchmarks", "mcf"],
    ["fuzz", "--runs", "0", "--warmup", "100"],
    ["sweep", "--benchmarks", "gcc", "--machines", "single",
     "--no-cache", "--workers", "1", "--length", "300", "--warmup", "100",
     "--seed", "3"],
    ["validate", "--benchmarks", "gcc", "--length", "300",
     "--warmup", "100"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_cli_rejects_sizing_flags_the_command_ignores(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "gcc", "--length", "0", "--warmup", "0"],
                 id="simulate-length-0"),
    pytest.param(["simulate", "gcc", "--length", "100", "--warmup", "100"],
                 id="simulate-warmup-is-length"),
    pytest.param(["simulate", "gcc", "--length", "100", "--warmup", "-5"],
                 id="simulate-negative-warmup"),
    pytest.param(["simulate", "gcc", "--view", "cpi", "--length", "-3",
                  "--warmup", "0"],
                 id="profile-negative-length"),
    pytest.param(["validate", "--length", "0", "--benchmarks", "gcc"],
                 id="validate-length-0"),
    pytest.param(["sweep", "--benchmarks", "gcc", "--machines", "single",
                  "--no-cache", "--workers", "1", "--length", "0"],
                 id="sweep-length-0"),
    pytest.param(["run", "E1", "--length", "100", "--warmup", "200"],
                 id="run-warmup-past-length"),
    pytest.param(["bench", "--no-write", "--length", "0", "--warmup", "0"],
                 id="bench-length-0"),
    pytest.param(["bench", "--no-write", "--length", "100",
                  "--warmup", "200"],
                 id="bench-warmup-past-length"),
    pytest.param(["bench", "--no-write", "--length", "5000"],
                 id="bench-default-warmup-past-length"),
])
def test_cli_rejects_sizes_that_leave_nothing_to_measure(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "error: --" in capsys.readouterr().err


def test_cli_usage_errors_exit_2():
    """argparse-level errors share the usage exit code."""
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_has_one_observed_run_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert ("{list,run,simulate,sweep,report,validate,forensics,minimize,"
            "oracle,fuzz,bench}") in capsys.readouterr().out


def test_cli_simulate_speedups_are_over_the_first_machine(monkeypatch,
                                                          capsys):
    import repro.__main__ as cli

    original, built = cli.execute_job, []

    def run(job, *args, **kwargs):
        built.append(job.machine)
        return original(job, *args, **kwargs)
    monkeypatch.setattr(cli, "execute_job", run)
    assert main(["simulate", "gcc", "--config", "small", "--machines",
                 "fgstp", "single", "fgstp", "--length", "1200",
                 "--warmup", "400"]) == 0
    assert built == ["fgstp", "single"]  # a machine named twice runs once
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith(("fgstp", "single"))]
    assert [row[0] for row in rows] == ["fgstp", "single"]
    fgstp, single = (int(row[1]) for row in rows)
    assert rows[0][3] == "1.000"
    assert rows[1][3] == f"{fgstp / single:.3f}"


@pytest.mark.parametrize("argv", [
    ["simulate", "nope"],
    ["simulate", "nope", "--view", "timeline"],
    ["oracle", "nope"],
    ["run", "E3", "--benchmarks", "gcc", "nope"],
    ["report", "--benchmarks", "nope"],
    ["sweep", "--benchmarks", "nope", "--no-cache"],
    ["validate", "--benchmarks", "nope"],
    ["bench", "--benchmarks", "nope", "--no-write"],
], ids=["simulate", "simulate-timeline", "oracle", "run", "report", "sweep",
        "validate", "bench"])
def test_cli_checks_benchmark_names_before_running(argv, monkeypatch,
                                                   capsys):
    import repro.__main__ as cli

    def run(_args):
        raise AssertionError("an unknown benchmark must run nothing")
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", run)
    assert main(argv) == 2
    assert "unknown benchmark(s) ['nope']" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--timeout", "-1"),
    ("--timeout", "0"),
    ("--stuck-after", "0"),
    ("--stuck-after", "-1"),
    ("--rss-limit-mb", "0"),
    ("--rss-limit-mb", "-5"),
])
def test_cli_sweep_rejects_limits_that_are_not_positive(flag, value,
                                                        capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--benchmarks", "gcc", "--machines", "single",
              "--no-cache", "--workers", "1", "--length", "300",
              "--warmup", "100", flag, value])
    assert excinfo.value.code == 2
    assert f"argument {flag}: must be positive, got {value}" in (
        capsys.readouterr().err)


def test_cli_sweep_serial_with_store(tmp_path, capsys):
    store_path = tmp_path / "runs.jsonl"
    assert main(["sweep", "--benchmarks", "gcc", "--seeds", "1", "2",
                 "--machines", "single", "fgstp", "--workers", "1",
                 "--length", "1500", "--warmup", "500", "--quiet",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--store", str(store_path)]) == 0
    out = capsys.readouterr().out
    assert "sweep results" in out
    assert "mode=serial" in out
    assert "jobs: total=4 done=4 failed=0" in out
    from repro.stats.store import ResultStore
    records = list(ResultStore(store_path))
    assert len(records) == 4
    assert all(record["tags"]["source"] == "sweep" for record in records)


def test_cli_sweep_reuses_result_cache(tmp_path, capsys):
    args = ["sweep", "--benchmarks", "gcc", "--seeds", "1",
            "--machines", "single", "--workers", "1",
            "--length", "1500", "--warmup", "500", "--quiet",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert "result_hits=1" in capsys.readouterr().out


def test_cli_sweep_rejects_unknown_benchmark(capsys):
    assert main(["sweep", "--benchmarks", "nope", "--workers", "1",
                 "--length", "1000", "--warmup", "100"]) == 2


def test_sweep_to_text_reports_failures():
    from repro.harness.parallel import (ExperimentEngine, SweepJob)
    from repro.harness.report import sweep_to_text
    from repro.uarch.params import core_config

    jobs = [SweepJob(machine="single", benchmark="gcc",
                     base=core_config("small"),
                     config=ExperimentConfig(trace_length=1200,
                                             warmup=400)),
            SweepJob(machine="single", benchmark="BOOM",
                     base=core_config("small"),
                     config=ExperimentConfig(trace_length=1200,
                                             warmup=400))]
    outcome = ExperimentEngine(max_workers=1, retries=0).run(jobs)
    text = sweep_to_text(outcome)
    assert "failures (1):" in text
    assert "single/BOOM" in text
    assert "jobs: total=2 done=1 failed=1" in text


def test_cli_oracle_checks_all_machines(capsys):
    assert main(["oracle", "gcc", "--length", "600", "--warmup", "100",
                 "--machines", "single", "fgstp"]) == 0
    out = capsys.readouterr().out
    assert "single" in out and "fgstp" in out
    assert "500" in out  # measured instructions checked


def test_cli_oracle_selftest(capsys):
    assert main(["oracle", "--selftest"]) == 0
    out = capsys.readouterr().out
    assert "6/6 mutation classes detected" in out


def test_cli_oracle_kernel_uses_program_fidelity(capsys):
    assert main(["oracle", "--kernel", "vector_sum",
                 "--machines", "single"]) == 0
    out = capsys.readouterr().out
    assert "functional execution" in out and "dataflow-checked" in out
    assert "OK" in out


def test_cli_fuzz_small_campaign(capsys):
    assert main(["fuzz", "--runs", "2", "--seed", "3", "--blocks", "4",
                 "--machines", "single", "fgstp", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "fuzz campaign: 2 programs" in out
    assert "no divergences" in out


def test_cli_fuzz_metamorphic_hang_fails_with_dumps(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CHAOS", "stuck_queue:after=0")
    monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "2000")
    assert main(["fuzz", "--runs", "0", "--metamorphic",
                 "--length", "600"]) == 1
    out = capsys.readouterr().out
    assert out.count("[FAIL]") == 6 and out.count("[PASS]") == 3
    dumps = sorted(tmp_path.glob(".repro_cache/crashes/*.json"))
    runs = {json.loads(dump.read_text())["context"]["run"]
            for dump in dumps}
    assert len(dumps) == len(runs) == 6
    assert "fgstp/livelock" not in runs


def test_cli_sweep_oracle_sample(tmp_path, capsys):
    assert main(["sweep", "--benchmarks", "gcc", "--seeds", "1",
                 "--machines", "single", "--workers", "1",
                 "--length", "1500", "--warmup", "500", "--quiet",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--oracle-sample", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "jobs: total=1 done=1 failed=0" in out
