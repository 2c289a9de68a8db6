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

A policy is a callable ``(partitioner, batch) -> list[int]`` plugged in
via :func:`set_policy`; the surrounding machinery (replication,
communication wiring, speculation) is identical for all policies.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..trace.record import TraceRecord
from .partitioner import Partitioner

#: Signature of an assignment policy.
AssignPolicy = Callable[[Partitioner, Sequence[TraceRecord]], List[int]]


def chain_policy(partitioner: Partitioner,
                 batch: Sequence[TraceRecord]) -> List[int]:
    """The default slice-growth assignment (delegates to the built-in)."""
    return Partitioner._assign_pass(partitioner, batch)


def roundrobin_policy(partitioner: Partitioner,
                      batch: Sequence[TraceRecord]) -> List[int]:
    """Alternate cores per instruction."""
    start = partitioner.stats.assigned
    cores = [(start + offset) % 2 for offset in range(len(batch))]
    _account_load(partitioner, batch, cores)
    return cores


def modulo_policy(block: int = 16) -> AssignPolicy:
    """Alternate cores per *block* of ``block`` instructions."""
    if block <= 0:
        raise ValueError(f"block must be positive: {block}")

    def policy(partitioner: Partitioner,
               batch: Sequence[TraceRecord]) -> List[int]:
        start = partitioner.stats.assigned
        cores = [((start + offset) // block) % 2
                 for offset in range(len(batch))]
        _account_load(partitioner, batch, cores)
        return cores

    return policy


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


#: Name -> policy for the harness and E14.
POLICIES: Dict[str, AssignPolicy] = {
    "chain": chain_policy,
    "roundrobin": roundrobin_policy,
    "modulo16": modulo_policy(16),
    "modulo64": modulo_policy(64),
    "decoupled": decoupled_policy,
    "single": single_core_policy,
}


def set_policy(partitioner: Partitioner, policy: AssignPolicy) -> None:
    """Replace *partitioner*'s assignment pass with *policy*.

    Only the core-assignment decision changes; the core mask,
    replication and communication wiring stay identical.  The
    partitioner passes itself to *policy* on every batch, so storing
    the policy forms no reference cycle.
    """
    partitioner.policy = policy


def policy_by_name(name: str) -> AssignPolicy:
    """Look up a registered policy.

    Raises:
        KeyError: listing the known names on a typo.
    """
    try:
        return POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; known: {sorted(POLICIES)}") from None
