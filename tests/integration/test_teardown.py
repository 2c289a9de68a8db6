"""A finished machine is freed by reference counting alone.

A reference cycle through a machine (say, a core holding its owner's
bound methods, or a partition policy holding the partitioner it is
stored on) keeps the machine, its trace and everything in flight
alive until a full collection.  These tests run each machine with the
cycle collector disabled, drop it, and require that weak references to
the machine, its partitioner and every adaptive region machine are
already dead, and that a collection then finds no cyclic garbage at
all (a squashed uop and the value tag it waited on used to form one,
and so did a prefetcher patched over its hierarchy's methods).
The Fg-STP orchestrator's per-seq maps hold in-flight entries only, so
a finished run leaves them empty.
"""

import gc
import weakref
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.fgstp.adaptive import AdaptiveFgStpMachine
from repro.fgstp.orchestrator import FgStpMachine
from repro.fgstp.params import FgStpParams
from repro.fgstp.policies import POLICIES
from repro.harness.runners import build_machine
from repro.uarch.params import small_core_config
from repro.workloads.generator import generate_trace


@contextmanager
def collector_disabled():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _alive(refs):
    return [ref() for ref in refs if ref() is not None]


def _run(machine, trace):
    result = machine.run(trace, workload="gcc", warmup=500)
    assert result.instructions == len(trace) - 500


@pytest.fixture(scope="module")
def trace():
    return generate_trace("gcc", 1500)


@pytest.mark.parametrize("name", ("single", "corefusion", "fgstp"))
def test_finished_machine_needs_no_collector(name, trace):
    with collector_disabled():
        machine = build_machine(name, small_core_config(), FgStpParams())
        refs = [weakref.ref(machine)]
        if hasattr(machine, "partitioner"):
            refs.append(weakref.ref(machine.partitioner))
        _run(machine, trace)
        del machine
        assert _alive(refs) == []


@pytest.mark.parametrize("name", ("single", "corefusion", "fgstp"))
def test_a_prefetching_machine_needs_no_collector(name, trace):
    """A prefetcher is fed by its hierarchy and holds no reference back
    to it, so machine, hierarchies and prefetchers are freed at once."""
    with collector_disabled():
        machine = build_machine(
            name, small_core_config().with_(prefetch_degree=2),
            FgStpParams())
        refs = [weakref.ref(owner) for hierarchy in
                getattr(machine, "hierarchies", None) or (machine.hierarchy,)
                for owner in (hierarchy, hierarchy.prefetcher)]
        refs.append(weakref.ref(machine))
        _run(machine, trace)
        del machine
        assert _alive(refs) == []


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_partition_policy_frees_its_partitioner(policy, trace):
    with collector_disabled():
        machine = FgStpMachine(small_core_config(),
                               FgStpParams(policy=policy))
        refs = [weakref.ref(machine), weakref.ref(machine.partitioner)]
        _run(machine, trace)
        del machine
        assert _alive(refs) == []


def test_adaptive_region_machines_need_no_collector(trace):
    machines, partitioners = [], []
    original = AdaptiveFgStpMachine._machine

    def spy(self, mode, **observers):
        machine = original(self, mode, **observers)
        machines.append(weakref.ref(machine))
        if mode == "fgstp":
            partitioners.append(weakref.ref(machine.partitioner))
        return machine

    with collector_disabled(), \
            mock.patch.object(AdaptiveFgStpMachine, "_machine", spy):
        machine = AdaptiveFgStpMachine(small_core_config(),
                                       sample_instructions=300,
                                       region_instructions=400)
        refs = [weakref.ref(machine)]
        _run(machine, trace)
        del machine
        # Three regions with two probes each, and a region run for each
        # of the two regions whose sample does not cover it.
        assert len(machines) == 8
        assert _alive(refs + machines + partitioners) == []


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_fgstp_maps_hold_only_in_flight_entries(policy, trace):
    machine = FgStpMachine(small_core_config(), FgStpParams(policy=policy))
    _run(machine, trace)
    assert machine._comm_tags == {}
    assert machine._send_map == {}
    assert machine._watch == {}
    assert machine._violation_store_pc == {}


@pytest.mark.parametrize("name", ("fgstp", "fgstp-adaptive"))
def test_finished_machine_leaves_no_cyclic_garbage(name, trace):
    overrides = ({"sample_instructions": 300, "region_instructions": 400}
                 if name == "fgstp-adaptive" else {})
    with collector_disabled():
        machine = build_machine(name, small_core_config(), FgStpParams(),
                                **overrides)
        _run(machine, trace)
        del machine
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    assert garbage == 0
