"""The checkpoint/restore hard invariant: resume is bit-identical.

For every machine, over random programs:

* taking checkpoints is invisible — a checkpointing run produces
  exactly the result of a plain run;
* restoring any snapshot into a *fresh* machine and resuming produces
  exactly the result of the straight-through run;
* both hold with skip-ahead on and off, and under the commit-stream
  oracle (the whole suite already runs with ``REPRO_CPISTACK_CHECK``).
"""

from collections import OrderedDict
from copy import deepcopy
from dataclasses import replace

import pytest

from repro.ckpt.manager import Snapshot
from repro.ckpt.state import dumps_state, loads_state
from repro.corefusion.machine import CoreFusionMachine
from repro.fgstp.adaptive import AdaptiveFgStpMachine
from repro.fgstp.orchestrator import FgStpMachine
from repro.uarch.params import core_config
from repro.uarch.pipeline.machine import MachineShell, SingleCoreMachine
from repro.uarch.warmup import split_warmup
from repro.workloads.generator import generate_trace

MACHINES = ("single", "corefusion", "fgstp", "fgstp-adaptive")


class CapturingSink:
    """In-memory checkpoint sink: keeps every snapshot, in order."""

    def __init__(self):
        self.saved = []

    def save(self, key, checkpoint):
        self.saved.append((key, checkpoint))
        return None


def build(name, base, **kwargs):
    if name == "single":
        return SingleCoreMachine(base, **kwargs)
    if name == "corefusion":
        return CoreFusionMachine(base, **kwargs)
    if name == "fgstp":
        return FgStpMachine(base, None, **kwargs)
    if name == "fgstp-adaptive":
        # Small regions so a short trace still crosses several
        # checkpointable region boundaries.
        return AdaptiveFgStpMachine(base, None, sample_instructions=400,
                                    region_instructions=1200, **kwargs)
    raise ValueError(name)


@pytest.mark.parametrize("name", MACHINES)
@pytest.mark.parametrize("seed", (1, 5))
def test_restore_and_resume_is_bit_identical(name, seed):
    base = core_config("small")
    trace = generate_trace("gcc", 3000, seed)

    plain = build(name, base).run(trace, workload="gcc", warmup=600)

    sink = CapturingSink()
    straight = build(name, base, checkpoint_interval=700,
                     checkpoint_sink=sink) \
        .run(trace, workload="gcc", warmup=600)
    # Taking checkpoints must not perturb timing in any way.
    assert straight.as_dict() == plain.as_dict()
    assert sink.saved, f"{name} took no checkpoints"

    # Resume from the earliest and the latest snapshot: both must
    # replay the remainder into exactly the straight-through result.
    for _, checkpoint in (sink.saved[0], sink.saved[-1]):
        resumed = build(name, base).run(trace, workload="gcc", warmup=600,
                                        resume_from=checkpoint)
        assert resumed.as_dict() == straight.as_dict()


@pytest.mark.parametrize("name", MACHINES)
def test_every_intermediate_checkpoint_resumes_identically(name):
    """Property over the whole snapshot sequence of one run."""
    base = core_config("small")
    trace = generate_trace("mcf", 2600, 9)
    sink = CapturingSink()
    straight = build(name, base, checkpoint_interval=500,
                     checkpoint_sink=sink) \
        .run(trace, workload="mcf", warmup=400)
    assert sink.saved
    committed_marks = [ckpt.committed for _, ckpt in sink.saved]
    assert committed_marks == sorted(committed_marks)
    for _, checkpoint in sink.saved:
        resumed = build(name, base).run(trace, workload="mcf", warmup=400,
                                        resume_from=checkpoint)
        assert resumed.as_dict() == straight.as_dict()


def _with_ordered_dict_sets(checkpoint):
    """*checkpoint* in the format every checkpoint written before cache
    sets became plain dicts has: each set an ``OrderedDict``."""
    state = loads_state(checkpoint.payload)
    hierarchies = state.get("hierarchies") or (state["hierarchy"],)
    for hierarchy in hierarchies:
        for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
            cache._sets = [OrderedDict(ways) for ways in cache._sets]
    return replace(checkpoint, payload=dumps_state(state))


@pytest.mark.parametrize("name", ("single", "corefusion", "fgstp"))
def test_ordered_dict_cache_sets_resume_identically(name):
    base = core_config("small")
    trace = generate_trace("mcf", 3000, 6)
    sink = CapturingSink()
    straight = build(name, base, checkpoint_interval=700,
                     checkpoint_sink=sink) \
        .run(trace, workload="mcf", warmup=600)
    checkpoint = _with_ordered_dict_sets(sink.saved[1][1])
    machine = build(name, base)
    resumed = machine.run(trace, workload="mcf", warmup=600,
                          resume_from=checkpoint)
    assert resumed.as_dict() == straight.as_dict()
    hierarchy = (machine.hierarchies[0] if name == "fgstp"
                 else machine.hierarchy)
    assert type(hierarchy.l1d._sets[0]) is OrderedDict


def _prefetchers(owner):
    """A copy of the prefetcher state of a machine or of a checkpoint's
    state."""
    get = owner.get if isinstance(owner, dict) else owner.__dict__.get
    hierarchies = get("hierarchies") or (get("hierarchy"),)
    return [deepcopy(vars(hierarchy.prefetcher))
            for hierarchy in hierarchies]


@pytest.fixture
def adopted_prefetchers(monkeypatch):
    """Each restored machine's prefetcher state, recorded right after
    the restore, before the run goes on."""
    adopted = []
    adopt = MachineShell._adopt_state

    def spy(machine, state, measured):
        cycle = adopt(machine, state, measured)
        adopted.append(_prefetchers(machine))
        return cycle

    monkeypatch.setattr(MachineShell, "_adopt_state", spy)
    return adopted


PREFETCHING = core_config("small").with_(prefetch_degree=2)


@pytest.mark.parametrize("name", ("single", "corefusion", "fgstp"))
def test_a_prefetching_machine_resumes_identically(name,
                                                   adopted_prefetchers):
    trace = generate_trace("lbm", 3000, 3)
    plain = build(name, PREFETCHING).run(trace, workload="lbm", warmup=600)
    sink = CapturingSink()
    straight = build(name, PREFETCHING, checkpoint_interval=700,
                     checkpoint_sink=sink) \
        .run(trace, workload="lbm", warmup=600)
    assert straight.as_dict() == plain.as_dict()
    caches = straight.extra["caches"]
    assert all(level["prefetcher"]["prefetches"] > 0 for level in (
        (caches["core0"], caches["core1"]) if name == "fgstp" else (caches,)))
    assert len(sink.saved) >= 2
    for _, checkpoint in sink.saved:
        saved = _prefetchers(loads_state(checkpoint.payload))
        assert all(prefetcher["_table"] for prefetcher in saved)
        resumed = build(name, PREFETCHING).run(
            trace, workload="lbm", warmup=600, resume_from=checkpoint)
        assert resumed.as_dict() == straight.as_dict()
        assert adopted_prefetchers.pop() == saved


@pytest.mark.parametrize("name", ("single", "corefusion", "fgstp"))
def test_a_prefetching_machine_resumes_identically_from_a_snapshot(
        name, adopted_prefetchers):
    trace = generate_trace("lbm", 3000, 3)
    prefix, measured = split_warmup(trace, 600)
    snapshot = Snapshot(900)
    straight = build(name, PREFETCHING)._run_measured(
        prefix, measured, "lbm", snapshot)
    saved = _prefetchers(loads_state(snapshot.payload))
    assert all(prefetcher["_table"] for prefetcher in saved)
    resumed = build(name, PREFETCHING)._run_measured(
        prefix, measured, "lbm", payload=snapshot.payload)
    assert resumed.as_dict() == straight.as_dict()
    assert adopted_prefetchers == [saved]


@pytest.mark.parametrize("skip", (False, True))
def test_identity_holds_with_skip_ahead_toggled(skip):
    base = core_config("small")
    trace = generate_trace("libquantum", 3000, 4)
    sink = CapturingSink()
    machine = build("single", base, checkpoint_interval=600,
                    checkpoint_sink=sink)
    machine.skip_ahead = skip
    straight = machine.run(trace, workload="libquantum", warmup=500)
    assert sink.saved
    resumed_machine = build("single", base)
    resumed_machine.skip_ahead = skip
    resumed = resumed_machine.run(trace, workload="libquantum", warmup=500,
                                  resume_from=sink.saved[-1][1])
    assert resumed.as_dict() == straight.as_dict()


@pytest.mark.parametrize("name", ("single", "fgstp"))
def test_checkpointing_run_is_clean_under_oracle(name):
    """Snapshot writes must not perturb the retirement stream: a
    checkpointing run under the commit-stream oracle retires exactly
    the trace (any divergence raises)."""
    from repro.harness.config import ExperimentConfig
    from repro.harness.parallel import execute_job, make_job

    base = core_config("small")
    sizing = ExperimentConfig(trace_length=2500, warmup=500, seed=2)
    trace = generate_trace("gcc", 2500, 2)
    sink = CapturingSink()
    checked = execute_job(make_job(name, "gcc", base, sizing, oracle=True,
                                   checkpoint_interval=600,
                                   checkpoint_sink=sink), trace)
    assert sink.saved, "oracle run took no checkpoints"
    plain = execute_job(make_job(name, "gcc", base, sizing, oracle=True),
                        trace)
    checked_d, plain_d = checked.as_dict(), plain.as_dict()
    # The oracle block reports bookkeeping (e.g. checked counts), which
    # is identical anyway; compare everything.
    assert checked_d == plain_d


def test_resume_rejects_foreign_checkpoint():
    from repro.ckpt.state import CheckpointMismatch

    base = core_config("small")
    trace = generate_trace("gcc", 2000, 1)
    sink = CapturingSink()
    build("single", base, checkpoint_interval=500, checkpoint_sink=sink) \
        .run(trace, workload="gcc", warmup=400)
    assert sink.saved
    checkpoint = sink.saved[-1][1]
    other = generate_trace("gcc", 2000, 2)
    with pytest.raises(CheckpointMismatch):
        build("single", base).run(other, workload="gcc", warmup=400,
                                  resume_from=checkpoint)
    with pytest.raises(CheckpointMismatch):
        build("single", base).run(trace, workload="gcc", warmup=300,
                                  resume_from=checkpoint)
