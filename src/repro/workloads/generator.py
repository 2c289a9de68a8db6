"""Synthetic trace generation from workload profiles.

The generator builds a *static program skeleton* (basic blocks wired into
loops) from a profile, then performs a stochastic walk over that skeleton
emitting one :class:`repro.trace.TraceRecord` per dynamic instruction.
The walk is driven by a seeded :class:`random.Random`, so traces are
fully reproducible.

What the skeleton gives us that naive i.i.d. sampling would not:

* a **coherent PC stream** — branch predictors and the I-cache see
  realistic static/dynamic locality, loops train the predictor, large
  code footprints pressure the BTB/L1I exactly as the profile dictates;
* **per-static-branch behaviour** — loop back-edges carry deterministic
  trip counts (taken ``k`` times, then not taken once), guards are
  heavily biased, and a profile-controlled fraction are data-dependent
  coin flips — which together set the misprediction rate;
* **per-static-memory-op streams** — each load/store site draws from a
  calibrated region mixture (L1-hot / L2-warm / streaming / cold; see
  :mod:`repro.workloads.profiles`), which sets L1/L2 miss rates, and
  pointer-chase loads form serialised address chains (mcf-style).

Register dependences are sampled per operand with a geometric distance
distribution around the profile's ``mean_dep_distance`` — short distances
produce serial chains (low ILP), long distances wide dataflow.

Every trace is a function of ``Random``'s ``random()``, ``getrandbits()``
and ``gauss()`` alone.  The library's other draws are written out here
(:func:`_below`, :func:`_shuffle`, :func:`_uniform`,
:func:`_expovariate`) exactly as CPython 3.10-3.13 computes them, which
also skips their wrapper layers on the hot paths; see
``docs/workloads.md`` for the determinism contract.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from math import log
from typing import Callable, List, Optional

from ..isa.opcodes import OpClass
from ..trace.record import SOURCES, TraceRecord, positions
from .profiles import WorkloadProfile, get_profile

#: Destination register pools (flat architectural ids; r0/ABI regs and
#: the induction/bound registers are excluded).
_INT_DEST_POOL = list(range(1, 28))
_FP_DEST_POOL = list(range(33, 60))

#: Loop induction registers: serial `i = i + 1` chains threaded through
#: every iteration and read by address computations and loop branches.
#: These chains are exactly what Fg-STP's replication mechanism targets.
_INDUCTION_REGS = (28, 29)
#: Loop-bound register: read by loop branches, never written (live-in).
_BOUND_REG = 30
#: Probability a memory access's address reads the induction register.
_ADDR_FROM_INDUCTION = 0.3

#: Probability a (non-chase) load *reloads* a recently stored address —
#: the spill/reload pattern that creates real store->load memory
#: dependences inside the instruction window (what Fg-STP's dependence
#: speculation exists for).
_RELOAD_PROB = 0.10
#: How far back a reload may reach into the recent-store history.
_RELOAD_DEPTH = 12

#: Probability an operand reads the next strand's values.
_CROSS_STRAND = 0.08

_WORD = 8
_LINE = 64

# Memory region layout (byte addresses).  Sizes are chosen relative to
# the reference hierarchies: hot fits any L1, warm fits any L2 but no L1,
# cold fits nothing, graph (pointer-chase) is around L2 capacity.
_HOT_BASE, _HOT_SIZE = 0x0000_1000, 8 * 1024
_WARM_BASE, _WARM_SIZE = 0x0010_0000, 64 * 1024
_GRAPH_BASE, _GRAPH_SIZE = 0x0100_0000, 512 * 1024
_COLD_BASE, _COLD_SIZE = 0x1000_0000, 64 * 1024 * 1024
_STREAM_BASE, _STREAM_SPACING = 0x4000_0000, 16 * 1024 * 1024
#: Bytes a site's sequential stream covers before it wraps.
_STREAM_SPAN = _STREAM_SPACING // 2

#: Body-entry kinds.  Entries are lists, the kind first:
#: ``[_COMP, pc, op_class, fp, nsrcs]``,
#: ``[_MEM, pc, fp, reload_rank, site, base, stride]`` (*site* indexes
#: the walk's stream cursors) and ``[_INDUCTION, pc, reg, srcs]``.
_COMP, _MEM, _INDUCTION = range(3)

_IALU, _IMUL, _IDIV = OpClass.IALU, OpClass.IMUL, OpClass.IDIV
_FADD, _FMUL, _FDIV = OpClass.FADD, OpClass.FMUL, OpClass.FDIV
_LOAD, _STORE, _BRANCH = OpClass.LOAD, OpClass.STORE, OpClass.BRANCH


def _name_hash(name: str) -> int:
    """Process-stable hash of a benchmark name (crc32)."""
    return zlib.crc32(name.encode("utf-8"))


def _split_pool(pool: List[int], parts: int) -> List[List[int]]:
    """Split a register pool into *parts* disjoint, non-empty slices."""
    size = max(1, len(pool) // parts)
    slices = [pool[i * size:(i + 1) * size] for i in range(parts)]
    slices[-1] = pool[(parts - 1) * size:]
    return slices


# ----------------------------------------------------------------------
# Draws: ``random.Random``'s, written out over its two C-level methods
# ----------------------------------------------------------------------

def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """``Random._randbelow(n)`` for ``n > 0``: a uniform int in
    ``[0, n)`` from the same ``getrandbits`` draws.  ``choice(seq)`` is
    ``seq[_below(len(seq))]``, ``randrange(n)`` is ``_below(n)`` and
    ``randint(a, b)`` is ``a + _below(b - a + 1)``.  Like the library,
    it draws ``n.bit_length()`` bits and rejects values >= n, so a power
    of two rejects half its draws."""
    bits = n.bit_length()
    draw = getrandbits(bits)
    while draw >= n:
        draw = getrandbits(bits)
    return draw


def _shuffle(getrandbits: Callable[[int], int], items: list) -> None:
    """``Random.shuffle(items)``: the same swaps from the same draws."""
    for i in range(len(items) - 1, 0, -1):
        j = _below(getrandbits, i + 1)
        items[i], items[j] = items[j], items[i]


def _uniform(random_: Callable[[], float], a: float, b: float) -> float:
    """``Random.uniform(a, b)``, rounding included."""
    return a + (b - a) * random_()


def _expovariate(random_: Callable[[], float], lambd: float) -> float:
    """``Random.expovariate(lambd)``, rounding included."""
    return -log(1.0 - random_()) / lambd


def _shared_srcs(*srcs: int) -> tuple:
    """The shared source tuple of *srcs* (see :data:`SOURCES`)."""
    return SOURCES.setdefault(srcs, srcs)


class _Block:
    """One basic block of the synthetic skeleton: body entries at
    ``pc``..``branch_pc - 1`` and a terminating branch at ``branch_pc``.

    A loop back-edge has a trip count (``trip`` >= 2) and reads
    ``loop_srcs``; any other branch has ``trip == 0`` and is taken with
    probability ``taken_prob``.
    """

    __slots__ = ("pc", "body", "induction", "loop_srcs", "branch_pc",
                 "trip", "taken_prob", "next_block", "taken_block",
                 "target_pc")

    def __init__(self, pc: int, body: List[list], induction: int,
                 trip: int, taken_prob: float):
        self.pc = pc
        self.body = body
        self.induction = induction      # this block's loop counter
        self.loop_srcs = _shared_srcs(induction, _BOUND_REG)
        self.branch_pc = pc + len(body)
        self.trip = trip
        self.taken_prob = taken_prob
        self.next_block = 0
        self.taken_block = 0
        self.target_pc = 0


class SyntheticWorkload:
    """A generated skeleton ready to emit traces.

    Build once per (profile, seed); call :meth:`trace` for a dynamic
    stream of any length.  Equal calls yield identical traces.
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 1):
        self.profile = profile
        self.seed = seed
        # zlib.crc32, not hash(): str hashing is randomised per process
        # (PYTHONHASHSEED) and would break trace reproducibility.
        rng = random.Random((_name_hash(profile.name)
                             ^ (seed * 2654435761)) & 0xFFFFFFFF)
        self._build_skeleton(rng)

    # ------------------------------------------------------------------
    # Skeleton construction
    # ------------------------------------------------------------------

    def _build_skeleton(self, rng: random.Random) -> None:
        profile = self.profile
        random_, getrandbits, gauss = rng.random, rng.getrandbits, rng.gauss
        fp_suite = profile.suite == "fp"
        frac_fp_ops = profile.frac_fp_ops
        frac_div = profile.frac_div
        frac_div_mul = profile.frac_div + profile.frac_mul
        frac_hard = profile.frac_hard_branch
        frac_hard_guard = profile.frac_hard_branch + 0.35
        mean_trip = max(2, profile.loop_iterations)
        # Body size targets the profile's dynamic branch fraction: one
        # terminator branch per block of mean (1/frac_branch - 1) body
        # instructions.  Low variance keeps the dynamic fraction close to
        # target despite visit-frequency weighting.
        mean_body = max(2.0, 1.0 / max(profile.frac_branch, 0.02) - 1.0)
        # Stratified body composition: every block matches the target
        # mix.  Loop-dominated walks make a handful of blocks dominate
        # the dynamic stream, so assigning kinds i.i.d. per site would
        # let one block's random composition define the whole trace's
        # mix.  Quota assignment with randomised rounding keeps each
        # block individually on target.
        mem_per_slot = ((profile.frac_load + profile.frac_store)
                        * (1.0 / max(1.0 - profile.frac_branch, 1e-6)))
        stream_bases: List[int] = []
        blocks: List[_Block] = []
        pc = 0
        for _ in range(profile.static_blocks):
            size = max(2, int(round(gauss(mean_body, 0.25 * mean_body))))
            exact = mem_per_slot * size
            n_mem = int(exact)
            if random_() < exact - n_mem:
                n_mem += 1
            # Memory sites are dual-role: whether one execution is a load
            # or a store (and whether a load pointer-chases), and its
            # region (stream / warm / cold / hot), are rolled per
            # *dynamic* instance, so the dynamic mixtures stay on target
            # even when a handful of loop blocks dominate the walk.  Each
            # site owns a sequential stream, staggered within its slot
            # so concurrent streams do not all alias to the same cache
            # sets.
            body: List[list] = []
            for _ in range(min(n_mem, size)):
                fp = fp_suite and random_() < 0.7
                site = len(stream_bases)
                base = (_STREAM_BASE + site * _STREAM_SPACING
                        + _below(getrandbits, _STREAM_SPACING // 4 // _LINE)
                        * _LINE)
                stride = _WORD * (1, 1, 1, 1, 2)[_below(getrandbits, 5)]
                # Spill/reload partner: this site always reloads the
                # rank-th most recent store (PC-stable pairing, like
                # real stack slots — what store-set predictors learn).
                reload_rank = 1 + _below(getrandbits, _RELOAD_DEPTH)
                stream_bases.append(base)
                body.append([_MEM, 0, fp, reload_rank, site, base, stride])
            while len(body) < size:
                fp = random_() < frac_fp_ops
                sub = random_()
                if sub < frac_div:
                    op_class = _FDIV if fp else _IDIV
                elif sub < frac_div_mul:
                    op_class = _FMUL if fp else _IMUL
                else:
                    op_class = _FADD if fp else _IALU
                body.append([_COMP, 0, op_class, fp,
                             2 if random_() < 0.75 else 1])
            _shuffle(getrandbits, body)
            induction = _INDUCTION_REGS[_below(getrandbits, 2)]
            if size >= 3:
                # One induction update per block: the serial i = i + 1
                # chain every loop iteration advances (real loops always
                # step their counter).  It replaces a *computation* slot
                # so the memory/branch mix stays on target.
                comp_offsets = [offset for offset, entry in enumerate(body)
                                if entry[0] == _COMP]
                offset = (comp_offsets[_below(getrandbits,
                                              len(comp_offsets))]
                          if comp_offsets else _below(getrandbits, size))
                body[offset] = [_INDUCTION, 0, induction,
                                _shared_srcs(induction)]
            for offset, entry in enumerate(body):
                entry[1] = pc + offset
            trip, taken_prob = 0, 0.0
            roll = random_()
            if roll < frac_hard:
                taken_prob = _uniform(random_, 0.4, 0.6)
            elif roll < frac_hard_guard:
                # Guard: strongly biased not-taken, i.i.d.
                taken_prob = _uniform(random_, 0.01, 0.08)
            else:
                # Loop back-edge with a (nearly) deterministic trip count.
                trip = max(2, int(gauss(mean_trip, mean_trip * 0.25)))
            block = _Block(pc, body, induction, trip, taken_prob)
            blocks.append(block)
            pc = block.branch_pc + 1

        # Wire successors: fallthrough to the next block (wrapping); the
        # taken edge is a short backward hop for loop back-edges and a
        # random block for hard/guard branches.
        n = len(blocks)
        for index, block in enumerate(blocks):
            block.next_block = (index + 1) % n
            if block.trip:
                back = _below(getrandbits, min(3, n - 1) + 1)
                block.taken_block = (index - back) % n
            else:
                block.taken_block = _below(getrandbits, n)
            block.target_pc = blocks[block.taken_block].pc
        self.blocks = blocks
        self._stream_bases = stream_bases

    # ------------------------------------------------------------------
    # Dynamic walk
    # ------------------------------------------------------------------

    def trace(self, length: int) -> List[TraceRecord]:
        """Emit a dynamic trace of exactly *length* instructions."""
        if length <= 0:
            return []
        profile = self.profile
        rng = random.Random(
            (_name_hash(profile.name) * 31
             + self.seed * 1013904223) & 0x7FFFFFFF)
        random_, getrandbits = rng.random, rng.getrandbits
        mem_total = profile.frac_load + profile.frac_store
        p_store = profile.frac_store / mem_total if mem_total else 0.0
        frac_chase = profile.frac_pointer_chase
        mem_stream = profile.mem_stream
        mem_warm = profile.mem_warm
        mem_warm_cold = profile.mem_warm + profile.mem_cold

        # Independent dependence strands: successive loop iterations
        # rotate through strands, so iteration i+1's values do not (in
        # the common case) depend on iteration i's — the fine-grain
        # parallelism the paper's partitioner extracts.  Each strand owns
        # a slice of the destination register pools; ``pools[s][fp]``
        # and ``recents[s][fp]`` are strand *s*'s integer (fp False) or
        # floating-point (fp True) slice and recent destinations.
        strands = max(1, profile.strands)
        pools = list(zip(_split_pool(_INT_DEST_POOL, strands),
                         _split_pool(_FP_DEST_POOL, strands)))
        recents = [([], []) for _ in range(strands)]
        # Dependence distance within a strand: the stream interleaves
        # `strands` strands, so a local distance d is a global distance
        # of roughly d * strands.
        lambd = 1.0 / max(1.0, profile.mean_dep_distance / strands)

        def pick_src(strand: int, fp: bool) -> int:
            if random_() < _CROSS_STRAND:
                strand = (strand + 1) % strands
            recent = recents[strand][fp]
            if not recent:
                pool = pools[strand][fp]
                return pool[_below(getrandbits, len(pool))]
            distance = int(_expovariate(random_, lambd)) + 1
            return recent[-distance] if distance <= len(recent) \
                else recent[0]

        # Per-trace site state: stream cursors and loop trip counters.
        cursors = self._stream_bases[:]
        trip_counts = [0] * len(self.blocks)
        # Records share equal field values: ``seq`` and ``srcs`` through
        # the process-wide tables, region and graph addresses (which
        # recur; a stream address does not) through this trace's dict.
        seqs = positions(length)
        shared = SOURCES.setdefault
        shared_addr = {}.setdefault

        def next_addr(site: int, base: int, stride: int) -> int:
            """The next address of a memory site: one roll of the
            profile's region mixture."""
            roll = random_()
            if roll < mem_stream:
                addr = cursors[site]
                cursor = addr + stride
                cursors[site] = (base if cursor >= base + _STREAM_SPAN
                                 else cursor)
                return addr
            roll -= mem_stream
            if roll < mem_warm:
                region, span = _WARM_BASE, _WARM_SIZE
            elif roll < mem_warm_cold:
                region, span = _COLD_BASE, _COLD_SIZE
            else:
                region, span = _HOT_BASE, _HOT_SIZE
            addr = region + _below(getrandbits, span // _WORD) * _WORD
            return shared_addr(addr, addr)

        recent_stores: deque = deque(maxlen=_RELOAD_DEPTH)  # addresses
        last_load_dst: Optional[int] = None
        records: List[TraceRecord] = []
        append = records.append
        blocks = self.blocks
        block_index = 0
        iteration = 0
        seq = 0
        while seq < length:
            block = blocks[block_index]
            strand = iteration % strands
            pool_pair = pools[strand]
            recent_pair = recents[strand]
            body = block.body
            room = length - seq
            for entry in (body if len(body) < room else body[:room]):
                kind = entry[0]
                if kind == _COMP:
                    _, pc, op_class, fp, nsrcs = entry
                    srcs = ((pick_src(strand, fp), pick_src(strand, fp))
                            if nsrcs == 2 else (pick_src(strand, fp),))
                    pool = pool_pair[fp]
                    dst = pool[_below(getrandbits, len(pool))]
                    append(TraceRecord(seqs[seq], pc, op_class, dst,
                                       shared(srcs, srcs)))
                elif kind == _MEM:
                    _, pc, fp, reload_rank, site, base, stride = entry
                    is_store = random_() < p_store
                    if not is_store and random_() < frac_chase:
                        # Serial pointer chain: the address register is
                        # the previous load's destination; addresses land
                        # in the graph region.  Chase chains deliberately
                        # cross strands — they are the serial backbone
                        # that limits partitioning (mcf-style).
                        srcs = ((last_load_dst,) if last_load_dst is not None
                                else (pick_src(strand, False),))
                        addr = _GRAPH_BASE + _below(
                            getrandbits, _GRAPH_SIZE // _LINE) * _LINE
                        addr = shared_addr(addr, addr)
                        fp = False
                    else:
                        if not is_store and recent_stores \
                                and random_() < _RELOAD_PROB:
                            # Spill/reload: read back the site's
                            # fixed-rank recent store.
                            addr = recent_stores[
                                -min(reload_rank, len(recent_stores))]
                        else:
                            addr = next_addr(site, base, stride)
                        addr_src = (block.induction
                                    if random_() < _ADDR_FROM_INDUCTION
                                    else pick_src(strand, False))
                        if is_store:
                            srcs = (addr_src, pick_src(strand, fp))
                            append(TraceRecord(
                                seqs[seq], pc, _STORE, None,
                                shared(srcs, srcs), addr, _WORD))
                            recent_stores.append(addr)
                            seq += 1
                            continue
                        srcs = (addr_src,)
                    pool = pool_pair[fp]
                    dst = pool[_below(getrandbits, len(pool))]
                    append(TraceRecord(seqs[seq], pc, _LOAD, dst,
                                       shared(srcs, srcs), addr, _WORD))
                    last_load_dst = dst
                else:
                    _, pc, reg, srcs = entry
                    append(TraceRecord(seqs[seq], pc, _IALU, reg, srcs))
                    seq += 1
                    continue
                # A computation or a load: its destination is the
                # strand's newest value.
                seq += 1
                recent = recent_pair[fp]
                recent.append(dst)
                if len(recent) > 64:
                    del recent[:32]
            if len(body) >= room:
                break
            # Loop branches compare the induction register against the
            # loop bound (a live-in); other branches read strand values.
            trip = block.trip
            if trip:
                count = trip_counts[block_index] + 1
                taken = count < trip
                trip_counts[block_index] = count if taken else 0
                srcs = block.loop_srcs
                iteration += 1
            else:
                taken = random_() < block.taken_prob
                srcs = (pick_src(strand, False), pick_src(strand, False))
                srcs = shared(srcs, srcs)
            append(TraceRecord(seqs[seq], block.branch_pc, _BRANCH, None,
                               srcs, None, 0, taken,
                               block.target_pc if taken else None))
            seq += 1
            block_index = block.taken_block if taken else block.next_block
        return records


def generate_trace(name: str, length: int,
                   seed: int = 1) -> List[TraceRecord]:
    """Generate a *length*-instruction trace for benchmark *name*.

    Equal ``(name, length, seed)`` triples always return identical traces.
    """
    workload = SyntheticWorkload(get_profile(name), seed=seed)
    return workload.trace(length)
