"""Per-record views of a :meth:`Partitioner.partition` emission.

The partitioner emits one core mask per record plus the wiring of the
records that need it; tests read each record's decision through one
:class:`Assigned` view.
"""

from typing import List, NamedTuple, Optional, Sequence, Tuple

#: Core mask -> the cores the record executes on.
CORES = {1: (0,), 2: (1,), 3: (0, 1)}


class Assigned(NamedTuple):
    """One record's partitioning decision."""

    seq: int
    cores: Tuple[int, ...]
    comm_srcs: List[Tuple[int, int]]
    mem_dep: Optional[Tuple[int, int]]
    stolen: bool

    @property
    def replicated(self) -> bool:
        return len(self.cores) == 2


def per_record(partitioner, batch: Sequence, first_seq: int,
               committed_seq: int = 0) -> List[Assigned]:
    """Partition *batch* and return one :class:`Assigned` per record."""
    masks, wiring = partitioner.partition(batch, first_seq,
                                          committed_seq=committed_seq)
    assert len(masks) == len(wiring) == len(batch)
    steals = partitioner.steals
    views = []
    for offset, (mask, wire) in enumerate(zip(masks, wiring)):
        comm, mem_dep = wire if wire is not None else (None, None)
        views.append(Assigned(first_seq + offset, CORES[mask],
                              list(comm or ()), mem_dep, offset in steals))
    return views
