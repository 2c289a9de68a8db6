"""Unit tests for the synthetic trace generator."""

import pytest

from repro.ckpt.state import trace_fingerprint
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


#: Length of the pinned traces: most of them end inside a block body.
_PIN_LENGTH = 1237
#: ``seed benchmark trace_fingerprint`` of every benchmark's
#: ``_PIN_LENGTH``-record trace.  A deliberate trace change bumps
#: ``TRACE_CACHE_VERSION`` and ``MODEL_VERSION`` and regenerates these
#: and the golden fixture (see docs/workloads.md).
_PINNED = """\
1 perlbench d3cc758ef1a26702f9cec9b4ecb446eff5cf408ae744a3a07e68c41834323cf7
1 bzip2 f670947a4cc85a0488f59f12ad1f020458796aaa597d44147e97195df5064d19
1 gcc 43c9143d86da7bd52101fc79a9f0628802d8453aca5669af6b17caa2bdf3d75f
1 mcf d113ed7ae6b0dd4fd5a68568566bb0a1a62f6a42d8ac719b5dcd172c4a0f380c
1 gobmk bb966b0d202121a30cd5d615cb5396dce7c04774e9c5b47360e4058e3405c820
1 hmmer a6e2c10a03ae7ab9ef070b11b6f27841c5b1d9793bdff0103c674d95d1c23d5a
1 sjeng 77be8032fd327bf19b5295a06439797bd9b7abb2ec982dfd3bc433d91dfb5162
1 libquantum 85017454864f423cd488b58ed69863b014859aeb8d29861bc0e4e6576dc36cfe
1 h264ref 239d8d53bcd01068cddbe0d4e864b6d970b8f7305122feb255a4d6c6e9f89581
1 omnetpp 36116af3729366e02a8742673a0cfb0738747f2f827032f614ae3110e255cfb5
1 astar 40ae972e12a1094596ba50b83992811911ae9d0a7ffb27f8c956b29f5987b943
1 xalancbmk bde7eade931e5eb066fa44438ca9ba4b3d27a060adb133e381718b0d7dc9182b
1 bwaves 0bbac65f6bf0d9f3e0204ea980ea3cbfdff51993f5e6de0ac5d4291d3dd03bd6
1 milc b291e0ca48079baedf98ccec8175f35087c05da1d7e20890b1867043033ac14f
1 zeusmp 42f0b0e8e39162f05e1ad8b887fd99ced3a906e9898ab2025abca47b8c36dbb2
1 gromacs 07656ce965b248c7145dc58c4fb2d9a6af1d97915a270bbd162dc21ff3f50829
1 leslie3d f0e5d386e9559bd9e22d386c9de2ac0d24f512ab08fd9f7157f57c7c865ad505
1 namd 13515d1c558d7e88ae71d47664983ee215dc30534a3bfaaaa1d82093e66dfd8f
1 soplex d1d8f11a21d27bf0234ad01d81e77b1a23113e707d8078eb1af253f29da9b3b0
1 lbm 5a854239b1ed797d6eccdcabf9ba3cd5c9abb773ee33d32744ba64f552515df7
42 perlbench 9bc60447a497fed26bb841ddafa3e0f7198e75ba7a351ff42bedd9e0f53f1240
42 bzip2 e54a0b33b75dc585045d8029a829fe07b7f59051159467fcc68e8737bb6c03b1
42 gcc 3c340039f102730b831ee8b02c10d675a54336c3abf4969b1819f18c14435385
42 mcf 9551c2c4ee0f94adcf9cd4c911912ea29fa7518d129896ce1bb0842507d2b919
42 gobmk f429dd47f8c5b0c271c8e6f3554bffca9eab0f8838a3114999c79150d1d37ffd
42 hmmer 3b7e6a5ecafeea43dddc5751e46f40027472dbbb4b3156d9154aea908be5de2d
42 sjeng 97407e3cc855b6d72f52a3ea0bc38d944d871c94f90acdecdf0621ed2c1b8c25
42 libquantum 93c2efc83052ec6221baffde6bced56f026a0bef240e0aaeb349ea7170c9927b
42 h264ref a79dae4f3c7b635e4dd1843ede8efce71926c6077982d7112647eb055ea685d1
42 omnetpp 6f85e197af9f854233dda996a5a30563c746b5dd624ebc06821a41c79c700af9
42 astar 0a5a02406cd2ae1259e6525f4523fa7abf3b999e7206c93acf9f291234f7f81f
42 xalancbmk 95a50d8aecd6a98df0c54fdf2c33cca689b731944ad1c0e7adb89aead3575879
42 bwaves 39e4fe1344f461b29621be22232702ebcabfd090e21aff41095d6f8e92456860
42 milc 7d97744cccd344a376095f479930da5a4a989dd5ff10b7e42fe7dc5b12a851e7
42 zeusmp a2e4d0cb7b7d79bf0495e84acd21b9d329f0b816d1b9b022c80cc104311a80e5
42 gromacs 22ee23577f0e11dfca977e7a6d4de250d631da92b8e2699ce1b88436828a8d34
42 leslie3d 3adf8fe0469bba3bbc689c1847c76d2d241fbef9dc2d070def7b1eb970da20e1
42 namd 9b6df3c42ffe2ca3fcd90c2ee5440adecfe92b4e2786b7fa375430d2ff24901a
42 soplex 432c89aded2c8ca0d8b0a9521961143975e470914ff1bb860c3effa75ec1645e
42 lbm 102e4d83e84ed75aa862931f3f3cb2f636e96e960b35c6a9cff6be0bb7a1c35a
"""
_PINS = [(int(seed), name, digest) for seed, name, digest
         in map(str.split, _PINNED.splitlines())]


@pytest.mark.parametrize("seed, name, fingerprint", _PINS,
                         ids=[f"{name}-s{seed}" for seed, name, _ in _PINS])
def test_every_benchmark_trace_is_pinned(seed, name, fingerprint):
    """Every record of every benchmark's trace stays the same: a
    generator change that moves one draw fails here."""
    assert trace_fingerprint(generate_trace(name, _PIN_LENGTH, seed)) \
        == fingerprint


def test_every_benchmark_is_pinned_at_each_seed():
    for seed in (1, 42):
        assert [name for pin_seed, name, _ in _PINS if pin_seed == seed] \
            == suite_names("all")
