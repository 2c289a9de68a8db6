"""Micro-architecture substrate: configs, branch prediction, caches, core."""

from .params import (
    BranchPredictorParams,
    CacheParams,
    CoreParams,
    core_config,
    medium_core_config,
    small_core_config,
)
from .pipeline import CycleCore, SingleCoreMachine, simulate_single_core
from .warmup import reseq, split_warmup, warm_state

__all__ = [
    "reseq",
    "split_warmup",
    "warm_state",
    "BranchPredictorParams",
    "CacheParams",
    "CoreParams",
    "core_config",
    "medium_core_config",
    "small_core_config",
    "CycleCore",
    "SingleCoreMachine",
    "simulate_single_core",
]
