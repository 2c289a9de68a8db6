"""Functional warm-up of caches and branch predictors.

Short simulation windows over-report compulsory cache misses and cold
branch-predictor behaviour.  The standard remedy (used by the paper's
methodology family) is to *functionally* warm the micro-architectural
state on a prefix of the trace — touch the caches and train the
predictor without timing anything — and measure only the suffix.

:func:`warm_state` performs that functional pass and :func:`split_warmup`
cuts a trace into the two parts.  The measured suffix keeps the trace's
own records: machines number each one by its position in the suffix,
never by its ``seq`` field.  :func:`reseq` densely renumbers records
into fresh ones, for a suffix that must stand alone as a trace (a
minimized failure written to disk).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..isa.opcodes import OpClass
from ..isa.program import INSTRUCTION_BYTES
from ..trace.record import TraceRecord, positions
from .branch.btb import FrontEndPredictor
from .cache.hierarchy import CacheHierarchy

_LOAD, _STORE = OpClass.LOAD, OpClass.STORE
_BRANCH, _JUMP = OpClass.BRANCH, OpClass.JUMP


def warm_state(records: Sequence[TraceRecord],
               hierarchy: Optional[CacheHierarchy] = None,
               predictor: Optional[FrontEndPredictor] = None,
               line_bytes: int = 64) -> None:
    """Functionally touch caches / train the predictor with *records*.

    Predictor statistics accumulated during warm-up are reset afterwards
    so reported misprediction rates cover only the measured window.
    """
    if hierarchy is not None:
        l1i_access, l1d_access = hierarchy.l1i.access, hierarchy.l1d.access
    if predictor is not None:
        predict, update = predictor.predict, predictor.update
    last_line = -1
    for record in records:
        op_class = record.op_class
        if hierarchy is not None:
            fetch = record.pc * INSTRUCTION_BYTES
            line = fetch // line_bytes
            if line != last_line:
                l1i_access(fetch)
                last_line = line
            if op_class == _LOAD:
                l1d_access(record.mem_addr, False)
            elif op_class == _STORE:
                l1d_access(record.mem_addr, True)
        if predictor is not None and (op_class == _BRANCH
                                      or op_class == _JUMP):
            predict(record)
            update(record)
    if predictor is not None:
        predictor.lookups = 0
        predictor.mispredictions = 0
    if hierarchy is not None:
        # A full counter reset: per-level cache stats, MSHR stall
        # cycles and prefetcher counters.  (Re-initialising the three
        # CacheStats objects in place used to skip the latter two.)
        hierarchy.reset_stats()


def reseq(records: Sequence[TraceRecord]) -> List[TraceRecord]:
    """Densely renumber *records* starting at seq 0 (fresh objects whose
    ``seq`` is the shared position int)."""
    return [
        TraceRecord(seq, r.pc, r.op_class, r.dst, r.srcs,
                    r.mem_addr, r.mem_size, r.taken, r.target)
        for seq, r in zip(positions(len(records)), records)
    ]


def split_warmup(records: Sequence[TraceRecord],
                 warmup: int) -> tuple:
    """Split a trace into ``(warmup_prefix, measured_suffix)``, two
    slices of *records* that share its record objects.

    Raises:
        ValueError: when *warmup* leaves no instructions to measure.
    """
    if warmup < 0:
        raise ValueError(f"negative warmup: {warmup}")
    if warmup and warmup >= len(records):
        # An empty trace must raise too — the old `len(records) > 0`
        # guard silently returned ([], []) for it.
        raise ValueError(
            f"warmup {warmup} consumes the whole {len(records)}-record trace")
    return records[:warmup], records[warmup:]
