"""Fg-STP mechanism parameters.

These knobs configure the partition unit and the inter-core fabric that
Fg-STP adds around two unmodified out-of-order cores.  Every sensitivity
experiment (E4/E5/E6/E7/E9/E14) sweeps one of these fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..isa.opcodes import OpClass
from .policies import POLICIES

#: Partitioner's per-op-class weight estimate (expected occupancy cost),
#: used for load balancing and affinity scoring.
DEFAULT_OP_WEIGHTS: Dict[OpClass, float] = {
    OpClass.IALU: 1.0,
    OpClass.IMUL: 3.0,
    OpClass.IDIV: 12.0,
    OpClass.FADD: 3.0,
    OpClass.FMUL: 4.0,
    OpClass.FDIV: 16.0,
    OpClass.LOAD: 3.0,
    OpClass.STORE: 1.0,
    OpClass.BRANCH: 1.0,
    OpClass.JUMP: 1.0,
    OpClass.NOP: 1.0,
}


@dataclass(frozen=True)
class FgStpParams:
    """Configuration of the Fg-STP partition unit and inter-core fabric.

    Attributes:
        window_size: Lookahead window — maximum dynamic instructions in
            flight (fetched but not globally committed).  This is the
            "large instruction window" the abstract highlights.
        batch_size: Instructions the partition unit considers at once;
            intra-batch dependence/consumer knowledge drives assignment
            and replication.
        partition_latency: Pipeline depth of the partition unit (cycles
            between global fetch and availability for core dispatch).
        queue_latency: Inter-core value-queue latency in cycles.  The
            default (2) models dedicated point-to-point wires between
            adjacent cores — the "dedicated hardware with minimum and
            localized impact" the paper describes; E4 sweeps this knob.
        queue_bandwidth: Values each queue can deliver per cycle.
        speculation: Enable cross-core memory-dependence speculation
            (when off, every cross-core store->load dependence is
            synchronised through the queues).
        replication: Enable replication of cheap instructions on both
            cores to avoid communication.
        recovery_penalty: Front-end refill cycles after a dependence
            misspeculation squash.
        balance_factor: Strength of the load-balancing term relative to
            the communication-affinity term in the assignment score.
        affinity_recent: Dependence distance (instructions) under which a
            producer exerts its full affinity pull (tight chains hurt the
            most when cut).
        replication_max_weight: Only instructions at most this expensive
            (per :data:`DEFAULT_OP_WEIGHTS`) are replication candidates.
        policy: The core-assignment pass, a
            :data:`~repro.fgstp.policies.POLICIES` name (``"chain"``,
            the slice-growth assignment, by default; E14 compares the
            others).  Kept out of the ``repr``; :meth:`key` adds it.
    """

    window_size: int = 512
    batch_size: int = 64
    partition_latency: int = 2
    queue_latency: int = 2
    queue_bandwidth: int = 2
    speculation: bool = True
    replication: bool = True
    recovery_penalty: int = 12
    balance_factor: float = 0.35
    affinity_recent: int = 8
    replication_max_weight: float = 1.0
    policy: str = field(default="chain", repr=False)

    def __post_init__(self):
        if self.window_size < self.batch_size:
            raise ValueError(
                f"window_size {self.window_size} smaller than batch_size "
                f"{self.batch_size}")
        if self.batch_size < 4:
            raise ValueError(f"batch_size too small: {self.batch_size}")
        if self.queue_latency < 1:
            raise ValueError(f"queue_latency must be >= 1: "
                             f"{self.queue_latency}")
        if self.queue_bandwidth < 1:
            raise ValueError(f"queue_bandwidth must be >= 1: "
                             f"{self.queue_bandwidth}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown partition policy {self.policy!r}; "
                             f"known: {sorted(POLICIES)}")

    def key(self) -> str:
        """The parameters' identity in job and checkpoint keys: the
        ``repr``, plus a policy marker when it is not ``"chain"``."""
        if self.policy != "chain":
            return f"{self!r}|policy={self.policy}"
        return repr(self)

    def with_(self, **changes) -> "FgStpParams":
        """Copy with the given fields replaced."""
        return replace(self, **changes)
