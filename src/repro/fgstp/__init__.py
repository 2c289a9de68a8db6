"""Fg-STP: Fine-Grain Single Thread Partitioning — the paper's contribution.

Public API::

    from repro.fgstp import FgStpMachine, FgStpParams, simulate_fgstp
    from repro.uarch import medium_core_config

    result = simulate_fgstp(trace, medium_core_config(),
                            FgStpParams(queue_latency=5))
    print(result.ipc)
"""

from .adaptive import AdaptiveFgStpMachine, simulate_fgstp_adaptive
from .comm import InterCoreQueue
from .orchestrator import FgStpMachine, simulate_fgstp
from .params import DEFAULT_OP_WEIGHTS, FgStpParams
from .partitioner import Assignment, PartitionStats, Partitioner
from .policies import POLICIES, policy_by_name, set_policy
from .specdep import DependencePredictor

__all__ = [
    "AdaptiveFgStpMachine",
    "simulate_fgstp_adaptive",
    "InterCoreQueue",
    "FgStpMachine",
    "simulate_fgstp",
    "DEFAULT_OP_WEIGHTS",
    "FgStpParams",
    "Assignment",
    "PartitionStats",
    "Partitioner",
    "DependencePredictor",
    "POLICIES",
    "policy_by_name",
    "set_policy",
]
