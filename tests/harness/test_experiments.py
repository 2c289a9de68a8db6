"""Tests for the experiment registry (small sizes, structural checks)."""

import pytest

import repro.harness.parallel as parallel
from repro.fgstp.policies import POLICIES
from repro.harness.config import ExperimentConfig
from repro.harness.experiments import (
    REGISTRY,
    ExperimentReport,
    run_experiment,
)
from repro.harness.parallel import ExperimentEngine

TINY = ExperimentConfig(trace_length=1500, warmup=500,
                        benchmarks=["gcc", "hmmer"])


def test_registry_covers_design_doc():
    assert set(REGISTRY) == {f"E{i}" for i in range(1, 16)}


def test_unknown_experiment():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("E99", TINY)


@pytest.mark.parametrize("experiment_id, simulations", [
    ("E3", 2),                      # fgstp per benchmark
    ("E8", 2 + 5 * 2),              # baselines + 5 overheads
    ("E14", 2 + len(POLICIES) * 2),  # baselines + every policy
])
def test_experiment_simulations_run_through_the_engine(
        monkeypatch, experiment_id, simulations):
    done = []
    engine = ExperimentEngine(progress=lambda event, message: (
        done.append(message) if event == "job-done" else None))
    monkeypatch.setattr(parallel, "_default_engine", engine)
    run_experiment(experiment_id,
                   TINY.with_(trace_length=600, warmup=200))
    assert len(done) == simulations


def test_default_engine_generates_each_trace_once(monkeypatch):
    """E6 and E7 each simulate gcc and hmmer twice, on one trace each."""
    from repro.workloads import suite

    generated = []
    generate = suite.generate_trace

    def counting_generate(name, *args):
        generated.append(name)
        return generate(name, *args)

    monkeypatch.setattr(suite, "generate_trace", counting_generate)
    monkeypatch.setattr(parallel, "DEFAULT_CACHE", suite.TraceCache())
    monkeypatch.setattr(parallel, "_default_engine", None)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    for experiment_id in ("E6", "E7"):
        run_experiment(experiment_id,
                       TINY.with_(trace_length=600, warmup=200))
    assert sorted(generated) == ["gcc", "hmmer"]


def test_e1_structure():
    report = run_experiment("E1", TINY)
    assert report.experiment_id == "E1"
    assert len(report.rows) == 2
    assert "geomean_fgstp_speedup" in report.metrics
    assert len(report.headers) == len(report.rows[0])
    rendered = report.render()
    assert "E1" in rendered and "gcc" in rendered


def test_e2_uses_small_config():
    report = run_experiment("E2", TINY)
    assert "small" in report.title


def test_e3_partition_rows():
    report = run_experiment("E3", TINY)
    for row in report.rows:
        frac_core1 = row[1]
        assert 0.0 <= frac_core1 <= 1.0


def test_e4_sweep_axis():
    report = run_experiment("E4", TINY)
    assert [row[0] for row in report.rows] == [1, 2, 3, 5, 10, 20]
    assert report.headers[0] == "queue_latency"


def test_e5_window_axis():
    report = run_experiment("E5", TINY)
    assert [row[0] for row in report.rows] == [64, 128, 256, 512, 1024]


def test_e6_metrics():
    report = run_experiment("E6", TINY)
    assert "geomean_speculation_gain" in report.metrics
    assert report.metrics["geomean_speculation_gain"] > 0


def test_e7_columns():
    report = run_experiment("E7", TINY)
    assert "replication_rate" in report.headers


def test_e8_overhead_axis():
    report = run_experiment("E8", TINY)
    assert [row[0] for row in report.rows] == [0, 2, 4, 6, 8]


def test_e9_bandwidth_axis():
    report = run_experiment("E9", TINY)
    assert [row[0] for row in report.rows] == [1, 2, 4]


def test_e10_int_fp_rows():
    config = TINY.with_(benchmarks=["gcc", "lbm"])
    report = run_experiment("E10", config)
    suites = {(row[0], row[1]) for row in report.rows}
    assert ("medium", "int") in suites
    assert ("medium", "fp") in suites


def test_e11_adaptive():
    report = run_experiment("E11", TINY)
    assert "geomean_adaptive_gain" in report.metrics


def test_e13_prints_the_same_table_when_checkpointing(tmp_path,
                                                     monkeypatch, capsys):
    """The machines E13 gives a prefetcher take no checkpoints (the run
    key does not see the prefetcher); the plain ones still do."""
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    argv = ["run", "E13", "--length", "1200", "--warmup", "400",
            "--benchmarks", "gcc"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("REPRO_CHECKPOINT_INTERVAL", "200")
    assert main(argv) == 0
    assert capsys.readouterr().out == plain
    checkpoints = tmp_path / ".repro_cache" / "checkpoints"
    assert len(list(checkpoints.glob("*.ckpt"))) == 3  # one per machine


def test_render_includes_metrics():
    report = ExperimentReport("EX", "t", ["a"], [[1.0]],
                              metrics={"m": 1.5})
    rendered = report.render()
    assert "m = 1.500" in rendered
