"""Alternative partition policies.

The default partitioner assigns instructions by slice growth (follow
your closest producer).  This module provides the alternatives the
design-space study (E14) compares against:

* ``chain``      — the default slice-growth policy (affinity + balance);
* ``roundrobin`` — alternate cores per instruction: maximum balance,
  maximum communication (the strawman that motivates affinity);
* ``modulo``     — alternate cores per *block* of N instructions:
  coarse-grain balance with fewer cuts than roundrobin;
* ``decoupled``  — access/execute split: loads, stores and their address
  slices on core 0, everything else on core 1 (the classic decoupled
  architecture shape);
* ``single``     — everything on core 0 (sanity bound: must match the
  single-core machine).

A policy is a callable ``(partitioner, batch) -> list[int]``;
``FgStpParams.policy`` names the :data:`POLICIES` entry a partitioner
calls on every batch.  The surrounding machinery (replication,
communication wiring, speculation) is identical for all policies.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

from ..trace.record import TraceRecord

if TYPE_CHECKING:
    from .partitioner import Partitioner

#: Signature of an assignment policy.
AssignPolicy = Callable[["Partitioner", Sequence[TraceRecord]], List[int]]


def chain_policy(partitioner: Partitioner,
                 batch: Sequence[TraceRecord]) -> List[int]:
    """The default slice-growth assignment (delegates to the built-in)."""
    return partitioner._assign_pass(batch)


def roundrobin_policy(partitioner: Partitioner,
                      batch: Sequence[TraceRecord]) -> List[int]:
    """Alternate cores per instruction."""
    start = partitioner.stats.assigned
    cores = [(start + offset) % 2 for offset in range(len(batch))]
    _account_load(partitioner, batch, cores)
    return cores


def modulo_policy(partitioner: Partitioner, batch: Sequence[TraceRecord],
                  block: int = 16) -> List[int]:
    """Alternate cores per *block* of ``block`` instructions."""
    if block <= 0:
        raise ValueError(f"block must be positive: {block}")
    start = partitioner.stats.assigned
    cores = [((start + offset) // block) % 2
             for offset in range(len(batch))]
    _account_load(partitioner, batch, cores)
    return cores


def decoupled_policy(partitioner: Partitioner,
                     batch: Sequence[TraceRecord]) -> List[int]:
    """Access/execute split: the memory slice on core 0, rest on core 1.

    The access slice is every load/store plus the transitive producers
    of load/store address operands within the batch.
    """
    in_slice = [False] * len(batch)
    marked_regs = set()
    for offset in range(len(batch) - 1, -1, -1):
        record = batch[offset]
        if record.is_memory:
            in_slice[offset] = True
            if record.srcs:
                marked_regs.add(record.srcs[0])  # address operand
        elif record.dst is not None and record.dst in marked_regs:
            in_slice[offset] = True
            marked_regs.discard(record.dst)
            marked_regs.update(record.srcs)
    cores = [0 if flagged else 1 for flagged in in_slice]
    _account_load(partitioner, batch, cores)
    return cores


def single_core_policy(partitioner: Partitioner,
                       batch: Sequence[TraceRecord]) -> List[int]:
    """Everything on core 0 (sanity bound)."""
    cores = [0] * len(batch)
    _account_load(partitioner, batch, cores)
    return cores


def _account_load(partitioner: Partitioner, batch, cores) -> None:
    """Keep the partitioner's balance bookkeeping consistent."""
    for record, core in zip(batch, cores):
        partitioner._load[core] += partitioner.weights[record.op_class]


#: Name -> policy, the values ``FgStpParams.policy`` may take.  Every
#: entry is a module-level function or a ``partial`` of one, so none
#: refers back to a partitioner.  A checkpoint leaves the policy out;
#: a restored machine looks it up here again.
POLICIES: Dict[str, AssignPolicy] = {
    "chain": chain_policy,
    "roundrobin": roundrobin_policy,
    "modulo16": partial(modulo_policy, block=16),
    "modulo64": partial(modulo_policy, block=64),
    "decoupled": decoupled_policy,
    "single": single_core_policy,
}
