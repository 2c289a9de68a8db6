"""Adaptive Fg-STP reuses or resumes its winning probe bit-identically.

``reference_adaptive.py`` keeps the region step that simulated the
winning mode's whole region again after probing both modes.  The
machine under test returns the winning probe when its sample covers the
region, and otherwise resumes the winner from the snapshot its probe
kept (at commit 0 when observers are attached).  Hypothesis draws the
trace and the region shape; results must equal the reference's exactly,
and with a commit hook and a tracer attached so must the hook stream
and the exported trace events.  A spy on state adoption checks that the
draws really resume Fg-STP regions past commit 0.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.manager import Snapshot
from repro.fgstp.adaptive import AdaptiveFgStpMachine
from repro.fgstp.orchestrator import FgStpMachine
from repro.obs.export import events_jsonl
from repro.obs.tracer import PipelineTracer
from repro.uarch.params import core_config
from repro.uarch.pipeline.machine import MachineShell, SingleCoreMachine
from repro.uarch.warmup import split_warmup
from repro.workloads.generator import generate_trace

from .reference_adaptive import ReferenceAdaptiveFgStpMachine
from .test_partition_properties import NAMES


@st.composite
def adaptive_cases(draw):
    # Samples above the Fg-STP lookahead (520 small, 528 medium), so
    # unobserved Fg-STP regions resume mid-run.
    sample = draw(st.integers(min_value=600, max_value=2000))
    return {
        "name": draw(st.sampled_from(NAMES)),
        "config": draw(st.sampled_from(["small", "medium"])),
        "length": draw(st.integers(min_value=1500, max_value=5000)),
        "seed": draw(st.integers(min_value=1, max_value=10 ** 6)),
        "warmup": draw(st.integers(min_value=0, max_value=1000)),
        "penalty": draw(st.integers(min_value=0, max_value=300)),
        "sample": sample,
        "region": draw(st.integers(min_value=sample, max_value=3000)),
        "observed": draw(st.booleans()),
    }


def _run_case(cls, case, trace):
    """``(result, hook stream, exported events)`` of one run of *cls*."""
    stream = []
    tracer = PipelineTracer() if case["observed"] else None
    hook = ((lambda uop, cycle: stream.append((uop.seq, cycle)))
            if case["observed"] else None)
    machine = cls(core_config(case["config"]), None,
                  sample_instructions=case["sample"],
                  region_instructions=case["region"],
                  reconfigure_penalty=case["penalty"],
                  commit_hook=hook, tracer=tracer)
    result = machine.run(trace, workload=case["name"],
                         warmup=case["warmup"])
    events = list(events_jsonl(tracer.events())) if tracer else []
    return result.as_dict(), stream, events


def _check(case):
    trace = generate_trace(case["name"], case["length"], case["seed"])
    resumed = _run_case(AdaptiveFgStpMachine, case, trace)
    reference = _run_case(ReferenceAdaptiveFgStpMachine, case, trace)
    assert resumed[0] == reference[0]
    assert resumed[1] == reference[1]
    assert resumed[2] == reference[2]
    if case["observed"]:
        assert resumed[1] and resumed[2]


@contextmanager
def adoptions():
    """Spy on snapshot adoption: yields a list that fills with
    ``(machine label, committed)`` for every region run resumed."""
    seen = []
    original = MachineShell._adopt_state

    def spy(self, state, measured_trace):
        seen.append((self.machine_label, state["committed"]))
        return original(self, state, measured_trace)

    with mock.patch.object(MachineShell, "_adopt_state", spy):
        yield seen


@settings(max_examples=40, deadline=None)
@given(adaptive_cases())
def _check_drawn_cases(case):
    _check(case)


def test_resume_matches_frozen_reference():
    with adoptions() as seen:
        _check_drawn_cases()
    assert any(label == "fgstp" and committed > 0
               for label, committed in seen), seen


@pytest.mark.parametrize("observed", (False, True))
def test_sample_covering_the_region_is_the_region_run(observed):
    with adoptions() as seen:
        _check(_fixed_case(sample=1000, region=1000, observed=observed))
    # Unobserved, every region returns its winning probe; observed, the
    # winner runs again from commit 0 so the observers see it.
    assert all(committed == 0 for _, committed in seen)
    assert bool(seen) == observed


@pytest.mark.parametrize("observed", (False, True))
def test_sample_below_the_lookahead_resumes_at_commit_zero(observed):
    with adoptions() as seen:
        _check(_fixed_case(sample=400, region=1500, observed=observed))
    labels = {label for label, _ in seen}
    assert labels == {"fgstp", "single"}
    assert all(committed == 0 for label, committed in seen
               if label == "fgstp" or observed)
    if not observed:
        # The single core's lookahead is shorter than the sample.
        assert any(committed > 0 for label, committed in seen
                   if label == "single")


@pytest.mark.parametrize("machine_class", (SingleCoreMachine, FgStpMachine))
@pytest.mark.parametrize("config", ("small", "medium"))
@pytest.mark.parametrize("name", ("gcc", "mcf"))
def test_snapshot_a_lookahead_before_the_end_resumes_longer(
        machine_class, config, name):
    """Each machine's lookahead bound on its own: a snapshot taken that
    far before a shorter trace's end resumes over the whole trace into
    exactly the whole trace's result."""
    base = core_config(config)
    trace = generate_trace(name, 3500, 5)
    whole = machine_class(base).run(trace, workload=name, warmup=500)
    prefix, measured = split_warmup(trace, 500)
    for sample in (400, 900, 1600, 2400):
        probe = machine_class(base)
        snapshot = Snapshot(sample - probe._lookahead())
        probe._run_measured(prefix, measured[:sample], name, snapshot)
        resumed = machine_class(base)._run_measured(
            prefix, measured, name, payload=snapshot.payload)
        assert resumed.as_dict() == whole.as_dict(), sample


def _fixed_case(sample, region, observed):
    # mcf picks single core for its first region, then Fg-STP: both
    # modes and a switch.
    return {"name": "mcf", "config": "small", "length": 4000, "seed": 3,
            "warmup": 500, "penalty": 150, "sample": sample,
            "region": region, "observed": observed}
