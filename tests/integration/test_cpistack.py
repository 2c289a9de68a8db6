"""Integration tests for cycle-accounting CPI stacks.

Every timing model must emit a CPI stack whose components sum *exactly*
to the measured cycle count — the one-cycle-one-cause ledger invariant.
(The ``REPRO_CPISTACK_CHECK`` flag set in conftest already validates
every run in the suite; these tests pin the end-to-end guarantees
``repro simulate --view cpi`` advertises.)
"""

import pytest

from repro.corefusion.machine import simulate_core_fusion
from repro.fgstp.adaptive import simulate_fgstp_adaptive
from repro.fgstp.orchestrator import simulate_fgstp
from repro.stats.cpistack import STALL_CAUSES, cpistack_of
from repro.uarch.params import medium_core_config, small_core_config
from repro.uarch.pipeline.machine import simulate_single_core
from repro.workloads.generator import generate_trace

SIMULATORS = {
    "single": simulate_single_core,
    "corefusion": simulate_core_fusion,
    "fgstp": simulate_fgstp,
    "fgstp-adaptive": simulate_fgstp_adaptive,
}


@pytest.mark.parametrize("machine", sorted(SIMULATORS))
@pytest.mark.parametrize("workload", ["gcc", "milc"])
def test_stack_components_sum_exactly_to_cycles(machine, workload):
    trace = generate_trace(workload, 3000)
    base = small_core_config()
    result = SIMULATORS[machine](trace, base, workload=workload,
                                 warmup=1000)
    stack = cpistack_of(result)
    assert stack is not None, f"{machine} result carries no CPI stack"
    stack.validate()
    assert stack.cycles == result.cycles
    assert stack.instructions == result.instructions
    # Exact float equality is intentional: widths are powers of two, so
    # slots/width components are exact and the ledger balances to the
    # measured cycle count with no tolerance.
    assert sum(stack.cycles_by_cause().values()) == result.cycles
    assert sum(stack.cpi_by_cause().values()) == pytest.approx(stack.cpi)


def test_single_core_retire_slots_match_instructions():
    trace = generate_trace("hmmer", 2500)
    result = simulate_single_core(trace, medium_core_config(),
                                  workload="hmmer", warmup=500)
    stack = cpistack_of(result)
    assert stack.slots["retire"] == result.instructions
    assert stack.width == medium_core_config().commit_width


def test_fgstp_width_spans_both_cores_and_sees_intercore_waits():
    trace = generate_trace("gcc", 3000)
    base = small_core_config()
    result = simulate_fgstp(trace, base, workload="gcc", warmup=1000)
    stack = cpistack_of(result)
    assert stack.width == 2 * base.commit_width
    # The partitioned machine communicates: some slots must be charged
    # to waiting on the other core.
    assert stack.slots.get("intercore_wait", 0) > 0


def test_memory_bound_workload_is_dominated_by_load_misses():
    trace = generate_trace("mcf", 4000)
    result = simulate_single_core(trace, small_core_config(),
                                  workload="mcf", warmup=1000)
    stack = cpistack_of(result)
    components = stack.cycles_by_cause()
    stall_cycles = sum(components.get(cause, 0.0)
                      for cause in STALL_CAUSES)
    assert components.get("load_miss", 0.0) > 0.5 * stall_cycles


def test_adaptive_charges_reconfiguration_overhead():
    """Mode switches must show up in the ledger, not vanish."""
    trace = generate_trace("gcc", 6000)
    base = small_core_config()
    result = simulate_fgstp_adaptive(trace, base, workload="gcc")
    stack = cpistack_of(result)
    stack.validate()
    switches = result.extra.get("mode_switches", 0)
    if switches:
        penalty = result.extra.get("reconfigure_penalty", 0)
        assert stack.slots.get("reconfig", 0) \
            == switches * penalty * stack.width
