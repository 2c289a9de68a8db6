"""Unit tests for the self-fetching front end."""

from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.uarch.branch.btb import FrontEndPredictor
from repro.uarch.cache.hierarchy import CacheHierarchy
from repro.uarch.params import small_core_config
from repro.uarch.pipeline.core import CycleCore
from repro.uarch.pipeline.fetch import SelfFetchUnit


def make(trace, params=None, warm_icache=True):
    params = params or small_core_config()
    core = CycleCore(params, CacheHierarchy(params))
    predictor = FrontEndPredictor(params.branch)
    if warm_icache:
        # A cold L1I line costs a full memory round-trip; most tests
        # want to observe steady-state fetch behaviour instead.
        for record in trace:
            core.hierarchy.fetch(record.pc * 4)
    return core, SelfFetchUnit(core, trace, predictor,
                               line_bytes=params.l1i.line_bytes)


def alu_run(n, pc_start=0):
    return [TraceRecord(i, pc_start + i, OpClass.IALU, 1, ())
            for i in range(n)]


def drive(core, fetch, cycles):
    for cycle in range(cycles):
        core.phase_commit(cycle)
        core.phase_complete(cycle)
        core.phase_issue(cycle)
        core.phase_dispatch(cycle)
        fetch.phase_fetch(cycle)


def test_fetch_width_per_cycle():
    trace = alu_run(20)
    core, fetch = make(trace)
    for cycle in range(3):
        fetch.phase_fetch(cycle)
    assert 0 < fetch.fetched <= 2 * 3  # width 2 per cycle


def test_done_after_trace_exhausted():
    trace = alu_run(4)
    core, fetch = make(trace)
    drive(core, fetch, 30)
    assert fetch.done()


def test_mispredict_stalls_fetch_until_resolution():
    # One branch with a cold BTB mispredicts; fetch must pause.
    trace = [
        TraceRecord(0, 0, OpClass.BRANCH, None, (1, 2), taken=True,
                    target=64),
    ] + [TraceRecord(i, 64 + i, OpClass.IALU, 1, ())
         for i in range(1, 12)]
    core, fetch = make(trace)
    drive(core, fetch, 60)
    assert fetch.mispredict_stalls > 0
    assert fetch.done()


def test_correct_taken_branch_ends_fetch_group():
    # Predictable taken branch (trained BTB) still terminates the group.
    params = small_core_config()
    trace = [
        TraceRecord(0, 0, OpClass.BRANCH, None, (1, 2), taken=True,
                    target=100),
        TraceRecord(1, 100, OpClass.IALU, 1, ()),
        TraceRecord(2, 101, OpClass.IALU, 1, ()),
    ]
    core, fetch = make(trace, params)
    # Pre-train the predictor so the branch predicts correctly.
    fetch.predictor.update(trace[0])
    fetch.predictor.update(trace[0])
    drive(core, fetch, 40)
    branch_uop_cycle = None
    assert fetch.done()
    assert fetch.mispredict_stalls == 0


def test_icache_miss_stalls_fetch():
    trace = alu_run(4)
    core, fetch = make(trace, warm_icache=False)
    fetch.phase_fetch(0)
    # Cold L1I: the line is being fetched, nothing delivered at cycle 0.
    assert fetch.fetched == 0

