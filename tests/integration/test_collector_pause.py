"""Every machine run pauses the cyclic garbage collector.

The scope every machine run enters (``repro.ckpt.state.run_scope``)
disables the collector on entry when it is enabled and enables it again
on exit, also when the run raises.  A nested scope, such as the
adaptive machine's probes and region runs, changes nothing, and a
caller that disabled the collector finds it still disabled.  A commit
hook records ``gc.isenabled()`` at every retirement, per adaptive
region.  ``test_teardown.py`` pins what makes the pause safe: no run
leaves cyclic garbage.
"""

import gc
from contextlib import contextmanager

import pytest

from repro.ckpt.state import run_scope
from repro.fgstp.params import FgStpParams
from repro.harness.runners import MACHINES, build_machine
from repro.integrity.chaos import ChaosSpec, apply_chaos
from repro.integrity.errors import SimulationHang
from repro.uarch.params import small_core_config
from repro.workloads.generator import generate_trace

WARMUP = 500
#: Three adaptive regions of 400, 400 and 200 measured records, the
#: first two resumed from their winning probe's snapshot.
ADAPTIVE = {"sample_instructions": 300, "region_instructions": 400}


class CollectorAtCommit:
    """Commit hook: ``(region, gc.isenabled())`` at every retirement.
    The adaptive machine calls ``new_epoch`` as each region starts."""

    def __init__(self):
        self.region = 0
        self.seen = []

    def new_epoch(self):
        self.region += 1

    def __call__(self, uop, cycle):
        self.seen.append((self.region, gc.isenabled()))


class Abort(Exception):
    pass


def _build(name, **options):
    overrides = ADAPTIVE if name == "fgstp-adaptive" else {}
    return build_machine(name, small_core_config(), FgStpParams(),
                         **overrides, **options)


@contextmanager
def collector(enabled):
    """Run the block with the collector *enabled* or not, and restore
    the state the test found."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


@pytest.fixture(scope="module")
def trace():
    return generate_trace("gcc", 1500)


@pytest.mark.parametrize("name", MACHINES)
def test_every_retirement_runs_with_the_collector_paused(name, trace):
    hook = CollectorAtCommit()
    with collector(enabled=True):
        result = _build(name, commit_hook=hook).run(
            trace, workload="gcc", warmup=WARMUP)
        assert gc.isenabled()
    assert len(hook.seen) == result.instructions == len(trace) - WARMUP
    assert {enabled for _, enabled in hook.seen} == {False}
    regions = {region for region, _ in hook.seen}
    assert regions == ({1, 2, 3} if name == "fgstp-adaptive" else {0})


@pytest.mark.parametrize("name", ("single", "corefusion", "fgstp"))
def test_a_hung_run_enables_the_collector_again(name, trace):
    hook = CollectorAtCommit()
    machine = _build(name, watchdog_window=1500, commit_hook=hook)
    apply_chaos(machine, ChaosSpec.parse("commit_stall:after=100"))
    with collector(enabled=True):
        with pytest.raises(SimulationHang):
            machine.run(trace, workload="gcc", warmup=WARMUP)
        assert gc.isenabled()
    assert hook.seen and {enabled for _, enabled in hook.seen} == {False}


@pytest.mark.parametrize("name", MACHINES)
def test_a_run_whose_hook_raises_enables_the_collector_again(name, trace):
    def hook(uop, cycle):
        assert not gc.isenabled()
        if uop.seq == 450:
            raise Abort

    with collector(enabled=True):
        with pytest.raises(Abort):
            _build(name, commit_hook=hook).run(trace, workload="gcc",
                                               warmup=WARMUP)
        assert gc.isenabled()


@pytest.mark.parametrize("name", MACHINES)
def test_a_caller_that_disabled_the_collector_keeps_it_disabled(
        name, trace):
    hook = CollectorAtCommit()
    with collector(enabled=False):
        _build(name, commit_hook=hook).run(trace, workload="gcc",
                                           warmup=WARMUP)
        assert not gc.isenabled()
    assert {enabled for _, enabled in hook.seen} == {False}


def test_a_nested_scope_changes_nothing(trace):
    """A run inside another scope neither pauses nor resumes the
    collector: only the outermost scope does."""
    with collector(enabled=True):
        with run_scope():
            assert not gc.isenabled()
            _build("fgstp").run(trace, workload="gcc", warmup=WARMUP)
            assert not gc.isenabled()
            gc.enable()
            hook = CollectorAtCommit()
            _build("fgstp", commit_hook=hook).run(trace, workload="gcc",
                                                  warmup=WARMUP)
            assert {enabled for _, enabled in hook.seen} == {True}
            assert gc.isenabled()
            gc.disable()
        assert gc.isenabled()
