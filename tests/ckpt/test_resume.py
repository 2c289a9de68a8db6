"""Every machine run resumes, restores and checkpoints through one entry.

``Checkpointer.begin`` looks up a run's latest checkpoint when the run
checkpoints, has no observer and no chaos, and could have written one;
a found checkpoint that does not restore is quarantined and the run
starts cold, while an explicit ``resume_from`` that does not restore
raises.  A direct ``Machine.run`` and an engine job run
(``execute_job``) resume alike.
"""

from dataclasses import replace

import pytest

from repro.ckpt import state
from repro.ckpt.state import CheckpointCorruption
from repro.ckpt.store import CheckpointStore
from repro.harness.config import ExperimentConfig
from repro.harness.parallel import execute_job, make_job
from repro.harness.runners import MACHINES, build_machine
from repro.obs.events import UOP
from repro.obs.tracer import PipelineTracer
from repro.uarch.params import core_config
from repro.workloads.generator import generate_trace

LENGTH, WARMUP, INTERVAL = 2400, 400, 700


class SpyStore(CheckpointStore):
    """A checkpoint store that records what each lookup found."""

    def __init__(self, directory):
        super().__init__(directory)
        self.found = []

    def load(self, key):
        checkpoint = super().load(key)
        self.found.append(checkpoint)
        return checkpoint


def _build(machine, **options):
    # Small regions so the adaptive run crosses several boundaries.
    if machine == "fgstp-adaptive":
        options.update(sample_instructions=300, region_instructions=600)
    return build_machine(machine, core_config("small"), **options)


@pytest.mark.parametrize("machine", MACHINES)
def test_a_direct_run_resumes_from_its_latest_checkpoint(tmp_path,
                                                         machine):
    trace = generate_trace("gcc", LENGTH, 3)
    plain = _build(machine).run(trace, workload="gcc", warmup=WARMUP)
    store = SpyStore(tmp_path / "checkpoints")
    for _ in range(2):  # cold, then resumed
        result = _build(machine, checkpoint_interval=INTERVAL,
                        checkpoint_sink=store) \
            .run(trace, workload="gcc", warmup=WARMUP)
        assert result.as_dict() == plain.as_dict()
    cold, resumed = store.found
    assert cold is None
    assert resumed is not None and resumed.committed >= INTERVAL
    assert not (tmp_path / "quarantine").exists()


@pytest.mark.parametrize("machine", ("single", "fgstp-adaptive"))
def test_a_found_checkpoint_that_does_not_restore_is_quarantined(
        tmp_path, machine):
    trace = generate_trace("gcc", LENGTH, 3)
    plain = _build(machine).run(trace, workload="gcc", warmup=WARMUP)
    store = SpyStore(tmp_path / "checkpoints")
    checkpointing = dict(checkpoint_interval=INTERVAL, checkpoint_sink=store)
    _build(machine, **checkpointing).run(trace, workload="gcc",
                                         warmup=WARMUP)
    [path] = (tmp_path / "checkpoints").glob("*.ckpt")
    broken = replace(store.load(path.stem), payload=b"not a pickle")
    store.save(path.stem, broken)  # a valid envelope round a bad payload

    result = _build(machine, **checkpointing).run(trace, workload="gcc",
                                                  warmup=WARMUP)
    assert result.as_dict() == plain.as_dict()
    assert store.found[-1] == broken
    reasons = list((tmp_path / "quarantine").glob("*.reason"))
    assert [reason.name for reason in reasons] == [f"{path.name}.reason"]
    assert "failed to deserialize" in reasons[0].read_text()

    with pytest.raises(CheckpointCorruption):
        _build(machine).run(trace, workload="gcc", warmup=WARMUP,
                            resume_from=broken)


def test_a_one_region_adaptive_job_never_hashes_its_trace(tmp_path,
                                                         monkeypatch):
    """At ``sweep_suite``'s shape the adaptive run polls for a
    checkpoint only at commit 0, so it can never have written one and
    looks none up."""
    def forbidden(trace):
        raise AssertionError("the trace was hashed")

    monkeypatch.setattr(state, "_hash_trace", forbidden)
    config = ExperimentConfig(trace_length=1200, warmup=400, seed=1)
    result = execute_job(make_job(
        "fgstp-adaptive", "gcc", core_config("medium"), config,
        checkpoint_interval=300, checkpoint_sink=CheckpointStore(tmp_path)))
    assert result.instructions == 800
    assert result.extra["modes"] and len(result.extra["modes"]) == 1
    assert not list(tmp_path.iterdir())


def test_a_traced_run_does_not_resume(tmp_path):
    """An observer attached to a resumed run would see only its suffix,
    so a traced run starts cold even with its checkpoint on disk."""
    store = SpyStore(tmp_path / "checkpoints")
    config = ExperimentConfig(trace_length=LENGTH, warmup=WARMUP, seed=3)
    job = make_job("single", "gcc", core_config("small"), config,
                   checkpoint_interval=INTERVAL, checkpoint_sink=store)
    execute_job(job)
    assert list((tmp_path / "checkpoints").glob("*.ckpt"))
    tracer = PipelineTracer()
    execute_job(job, tracer=tracer)
    assert store.found == [None]  # only the untraced run looked
    assert tracer.events(UOP)[0].seq == 0
