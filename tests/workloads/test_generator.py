"""Unit tests for the synthetic trace generator."""

import pytest

from repro.trace.analysis import summarize
from repro.trace.record import validate_trace
from repro.workloads.generator import SyntheticWorkload, generate_trace
from repro.workloads.profiles import get_profile
from repro.workloads.suite import suite_names


def test_traces_are_valid():
    for name in ("gcc", "mcf", "lbm"):
        validate_trace(generate_trace(name, 2000))


def test_deterministic_per_seed():
    assert generate_trace("gcc", 3000) == generate_trace("gcc", 3000)
    assert generate_trace("gcc", 3000, seed=2) \
        == generate_trace("gcc", 3000, seed=2)


def test_different_seeds_differ():
    assert generate_trace("gcc", 3000, seed=1) \
        != generate_trace("gcc", 3000, seed=2)


def test_different_benchmarks_differ():
    assert generate_trace("gcc", 1000) != generate_trace("mcf", 1000)


def test_exact_length():
    for length in (1, 7, 100, 4096):
        assert len(generate_trace("bzip2", length)) == length


def test_zero_length():
    assert generate_trace("bzip2", 0) == []


def test_repeated_calls_on_one_workload_are_stable():
    workload = SyntheticWorkload(get_profile("milc"))
    assert workload.trace(1500) == workload.trace(1500)


def test_prefix_property():
    """A shorter trace is a prefix of a longer one (same skeleton walk),
    for every benchmark: the relation battery hands its livelock run a
    prefix of its trace, and that run's recipe regenerates the prefix
    as a trace of its own length."""
    long = generate_trace("hmmer", 2000)
    short = generate_trace("hmmer", 1000)
    assert long[:1000] == short
    for seed in (1, 7):
        for name in suite_names("all"):
            assert generate_trace(name, 5000, seed)[:3000] \
                == generate_trace(name, 3000, seed), (name, seed)


def test_mix_matches_profile():
    for name in ("gcc", "mcf", "hmmer", "lbm"):
        profile = get_profile(name)
        summary = summarize(generate_trace(name, 20000))
        assert summary.branch_fraction == pytest.approx(
            profile.frac_branch, abs=0.06), name
        assert summary.load_fraction == pytest.approx(
            profile.frac_load, abs=0.08), name
        assert summary.store_fraction == pytest.approx(
            profile.frac_store, abs=0.06), name


def test_pointer_chase_creates_serial_loads():
    """In mcf, many loads read the previous load's destination."""
    trace = generate_trace("mcf", 8000)
    chained = 0
    last_load_dst = None
    for record in trace:
        if record.is_load:
            if last_load_dst is not None and record.srcs \
                    and record.srcs[0] == last_load_dst:
                chained += 1
            last_load_dst = record.dst
    loads = sum(1 for r in trace if r.is_load)
    assert chained / loads > 0.15


def test_streaming_benchmark_walks_sequentially():
    trace = generate_trace("lbm", 8000)
    sequential = 0
    cursor = {}
    for record in trace:
        if record.is_memory:
            pc = record.pc
            previous = cursor.get(pc)
            if previous is not None and 0 < record.mem_addr - previous <= 64:
                sequential += 1
            cursor[pc] = record.mem_addr
    memory_ops = sum(1 for r in trace if r.is_memory)
    assert sequential / memory_ops > 0.4


def test_taken_targets_are_consistent_with_pcs():
    """Every taken branch's target is a real block-start PC."""
    workload = SyntheticWorkload(get_profile("gcc"))
    block_starts = {block.pc for block in workload.blocks}
    for record in workload.trace(5000):
        if record.is_branch and record.taken:
            assert record.target in block_starts


def test_loop_branches_have_periodic_outcomes():
    """Loop back-edges repeat taken^k not-taken patterns (predictable)."""
    trace = generate_trace("libquantum", 20000)
    outcomes = {}
    for record in trace:
        if record.is_branch:
            outcomes.setdefault(record.pc, []).append(record.taken)
    # At least one heavily-executed branch should be almost always taken
    # (a long-trip-count loop).
    hot = max(outcomes.values(), key=len)
    assert len(hot) > 50
    assert sum(hot) / len(hot) > 0.9


def test_induction_registers_used():
    from repro.workloads.generator import _INDUCTION_REGS
    trace = generate_trace("hmmer", 5000)
    updates = [r for r in trace
               if r.dst in _INDUCTION_REGS and r.srcs == (r.dst,)]
    readers = [r for r in trace
               if r.dst not in _INDUCTION_REGS
               and any(s in _INDUCTION_REGS for s in r.srcs)]
    assert updates, "no induction chain updates"
    assert readers, "induction values never consumed"


def test_strand_independence():
    """High-strand workloads spread dependences over disjoint registers."""
    trace = generate_trace("lbm", 5000)
    # Collect register sets used as compute destinations.
    dests = {r.dst for r in trace
             if r.dst is not None and not r.is_memory}
    assert len(dests) > 12  # several strand slices in play
