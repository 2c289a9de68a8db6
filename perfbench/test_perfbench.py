"""Self-tests for the benchmark, at a tiny sizing.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import cells  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402
from repro.fgstp.params import FgStpParams  # noqa: E402
from repro.harness.config import ExperimentConfig  # noqa: E402
from repro.harness.parallel import ExperimentEngine, make_job  # noqa: E402
from repro.harness.runners import MACHINES, build_machine  # noqa: E402
from repro.uarch.params import core_config  # noqa: E402
from repro.uarch.pipeline.core import CycleCore  # noqa: E402
from repro.workloads.generator import generate_trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
LENGTH, WARMUP = 1200, 400


def test_metric_names_are_well_formed_and_declared():
    names = [entry["name"] for kind in ("end_to_end", "per_layer")
             for entry in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    declared = {entry["name"] for entry in SPEC["per_layer"]}
    emitted = (set(cells.SHARES) | set(cells.CALLS)
               | set(cells.exact_counts([])))
    assert emitted <= declared
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("machine", MACHINES)
def test_wrapping_leaves_results_bit_identical(machine):
    trace = generate_trace("milc", LENGTH, 3)
    base = core_config("small")

    def simulate():
        model = build_machine(machine, base, FgStpParams())
        return model.run(trace, workload="milc", warmup=WARMUP)

    plain = simulate()
    original = CycleCore.__dict__["phase_commit"]
    recorder = spans.SpanRecorder()
    with spans.patched(spans.layer_patches(recorder)):
        traced = simulate()
    assert cells.fingerprint(traced) == cells.fingerprint(plain)
    assert CycleCore.__dict__["phase_commit"] is original
    assert recorder.calls["core.commit"] > 0
    assert (recorder.calls["partitioner"] > 0) == machine.startswith("fgstp")
    assert set(recorder.calls) <= set(spans.SPAN_NAMES)


def test_self_time_subtracts_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 10.5, 11.0, 12.0])
    recorder = spans.SpanRecorder(clock=lambda: next(ticks))

    leaf = recorder.wrap("leaf", lambda: None)

    def body():
        leaf()   # 1.0 -> 3.0
        leaf()   # 4.0 -> 10.0
        inner()  # 10.5 -> 11.0

    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", body)
    outer()      # 0.0 -> 12.0
    assert recorder.self_s["leaf"] == pytest.approx(8.0)
    assert recorder.self_s["inner"] == pytest.approx(0.5)
    assert recorder.self_s["outer"] == pytest.approx(12.0 - 8.5)
    assert dict(recorder.calls) == {"leaf": 2, "inner": 1, "outer": 1}


def _explode(job):
    raise RuntimeError(f"injected failure in {job.name}")


def test_error_rate_counts_a_failing_job(tmp_path):
    config = ExperimentConfig(trace_length=LENGTH, warmup=WARMUP, seed=1)
    jobs = [make_job(machine, "gcc", core_config("small"), config)
            for machine in ("single", "fgstp")]
    engine = ExperimentEngine(max_workers=1, retries=0, cache_dir=tmp_path)
    outcome = engine.run(jobs, job_fn=_explode)
    tally = cells.Tally()
    sweep._check(tally, "cold", outcome, None)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_a_raising_cell_is_counted_not_fatal():
    def broken(original):
        def partition(self, *args, **kwargs):
            raise RuntimeError("injected")
        return partition

    from repro.fgstp.partitioner import Partitioner

    tally = cells.Tally()
    trace = generate_trace("gcc", cells.LENGTH, 1)
    outcome = cells._attempt(tally, HostSpeed(), ("fgstp", "gcc", 1), trace,
                             None, [(Partitioner, "partition", broken)])
    assert outcome is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "injected" in tally.problems[0]


def test_report_lists_every_declared_metric():
    tally = cells.Tally()
    tally.check("op", [])
    layers = run.report({"error_rate": 0.0}, tally, SPEC, traced=True)
    assert list(layers["metrics"]) == [e["name"] for e in SPEC["per_layer"]]
    with pytest.raises(ValueError):
        run.report({"undeclared": 1.0}, tally, SPEC, traced=True)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
