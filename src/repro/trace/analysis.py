"""Trace characterisation utilities.

These functions summarise a dynamic trace along the axes that matter to
the partitioning study: instruction mix, control-flow behaviour,
register-dependence distances and memory-dependence structure.  The
workload generators use them in tests to check that synthetic streams hit
their calibration targets, and the examples use them for reporting.

:func:`dependences` is the one last-writer pass: the trace fixes every
source's producer and every load's last older store, so the Fg-STP
partition unit reads both from it instead of tracking writers itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.opcodes import OpClass
from .record import TraceRecord

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE


@dataclass
class TraceSummary:
    """Aggregate characterisation of one trace.

    Attributes:
        instruction_count: Total dynamic instructions.
        mix: Fraction of instructions per op class.
        branch_fraction: Conditional branches / all instructions.
        taken_fraction: Taken conditional branches / conditional branches.
        load_fraction: Loads / all instructions.
        store_fraction: Stores / all instructions.
        mean_dependence_distance: Mean dynamic distance (in instructions)
            from each register read back to its value's producer.
        unique_pcs: Number of distinct static instructions touched.
    """

    instruction_count: int
    mix: Dict[OpClass, float] = field(default_factory=dict)
    branch_fraction: float = 0.0
    taken_fraction: float = 0.0
    load_fraction: float = 0.0
    store_fraction: float = 0.0
    mean_dependence_distance: float = 0.0
    unique_pcs: int = 0


def instruction_mix(trace: Sequence[TraceRecord]) -> Dict[OpClass, float]:
    """Fraction of dynamic instructions in each op class."""
    if not trace:
        return {}
    counts = Counter(record.op_class for record in trace)
    total = len(trace)
    return {op_class: count / total for op_class, count in counts.items()}


def dependences(trace: Sequence[TraceRecord]) -> Tuple[
        List[Tuple[int, ...]], List[Optional[Tuple[int, int]]]]:
    """Each trace position's register producers and memory producer.

    Returns ``(producers, stores)``, two lists aligned with *trace*:

    * ``producers[i]`` holds, for each source of ``trace[i]`` in
      ``srcs`` order (repeats kept), the position of the latest older
      record writing that register, or ``-1`` for a live-in;
    * ``stores[i]`` is ``(position, pc)`` of the latest older store to a
      load's ``mem_addr``, and ``None`` for a non-load or a load with no
      older store there.

    Positions index *trace*; the records' ``seq`` fields are not read.
    """
    reg_writer: Dict[int, int] = {}
    last_store: Dict[int, Tuple[int, int]] = {}
    writer_of = reg_writer.get
    producers: List[Tuple[int, ...]] = []
    stores: List[Optional[Tuple[int, int]]] = []
    for position, record in enumerate(trace):
        srcs = record.srcs
        producers.append(tuple([writer_of(src, -1) for src in srcs])
                         if srcs else ())
        op_class = record.op_class
        stores.append(last_store.get(record.mem_addr)
                      if op_class == _LOAD else None)
        if record.dst is not None:
            reg_writer[record.dst] = position
        if op_class == _STORE:
            last_store[record.mem_addr] = (position, record.pc)
    return producers, stores


def dependence_distances(trace: Sequence[TraceRecord]) -> List[int]:
    """Producer→consumer distances of every register read.

    For every dynamic register read whose producer appears earlier in the
    trace, records how many positions the consumer lies after the
    producer.  Reads of never-written registers (live-ins) are skipped.
    """
    producers, _stores = dependences(trace)
    return [position - producer
            for position, sources in enumerate(producers)
            for producer in sources if producer >= 0]


def memory_dependence_count(trace: Sequence[TraceRecord],
                            window: Optional[int] = None) -> int:
    """Number of loads that read an address stored to earlier in the trace.

    Args:
        window: When given, only stores at most *window* instructions
            before the load are considered (models a finite disambiguation
            window).
    """
    _producers, stores = dependences(trace)
    return sum(1 for position, store in enumerate(stores)
               if store is not None
               and (window is None or position - store[0] <= window))


def summarize(trace: Sequence[TraceRecord]) -> TraceSummary:
    """Compute a full :class:`TraceSummary` for *trace*."""
    total = len(trace)
    if total == 0:
        return TraceSummary(instruction_count=0)
    branches = [r for r in trace if r.is_branch]
    taken = sum(1 for r in branches if r.taken)
    loads = sum(1 for r in trace if r.is_load)
    stores = sum(1 for r in trace if r.is_store)
    distances = dependence_distances(trace)
    return TraceSummary(
        instruction_count=total,
        mix=instruction_mix(trace),
        branch_fraction=len(branches) / total,
        taken_fraction=taken / len(branches) if branches else 0.0,
        load_fraction=loads / total,
        store_fraction=stores / total,
        mean_dependence_distance=(
            sum(distances) / len(distances) if distances else 0.0),
        unique_pcs=len({r.pc for r in trace}),
    )
