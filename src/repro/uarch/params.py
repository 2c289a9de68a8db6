"""Machine configuration records for every timing model.

Two reference configurations mirror the paper's evaluation points:

* ``small_core_config()``  — a 2-wide out-of-order core (the "small 2-core
  CMP" building block),
* ``medium_core_config()`` — a 4-wide out-of-order core (the "medium
  2-core CMP" building block).

All timing models (single core, Core Fusion, Fg-STP) are parameterised by
these records so experiments can sweep any field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..isa.opcodes import OpClass


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one cache level.

    Attributes:
        size_bytes: Total capacity.
        assoc: Set associativity.
        line_bytes: Line size.
        hit_latency: Access latency in cycles on a hit.
        mshrs: Outstanding-miss capacity (misses beyond this stall).
    """

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 2
    mshrs: int = 8

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets <= 0:
            raise ValueError(
                f"cache of {self.size_bytes} B cannot hold "
                f"{self.assoc} ways of {self.line_bytes} B lines")
        return sets


@dataclass(frozen=True)
class BranchPredictorParams:
    """Branch predictor configuration.

    Attributes:
        kind: ``"bimodal"``, ``"gshare"`` or ``"tournament"``.
        table_entries: Pattern-history table entries (per component).
        history_bits: Global-history length for gshare/tournament.
        btb_entries: Branch target buffer entries.
        ras_entries: Return address stack depth.
    """

    kind: str = "gshare"
    table_entries: int = 4096
    history_bits: int = 12
    btb_entries: int = 2048
    ras_entries: int = 16


#: Execution latency (cycles) of each op class, excluding memory time.
DEFAULT_LATENCIES: Dict[OpClass, int] = {
    OpClass.IALU: 1,
    OpClass.IMUL: 3,
    OpClass.IDIV: 12,
    OpClass.FADD: 3,
    OpClass.FMUL: 4,
    OpClass.FDIV: 16,
    OpClass.LOAD: 0,    # address generation; memory time added by the cache
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.JUMP: 1,
    OpClass.NOP: 1,
}

#: Functional-unit pool sizes of the *small* core, per op class group.
SMALL_FU_POOL: Dict[str, int] = {
    "ialu": 2, "imul": 1, "fpu": 1, "mem": 1, "branch": 1,
}

MEDIUM_FU_POOL: Dict[str, int] = {
    "ialu": 4, "imul": 2, "fpu": 2, "mem": 2, "branch": 2,
}

#: Which pool each op class issues to.
FU_POOL_OF_CLASS: Dict[OpClass, str] = {
    OpClass.IALU: "ialu",
    OpClass.IMUL: "imul",
    OpClass.IDIV: "imul",
    OpClass.FADD: "fpu",
    OpClass.FMUL: "fpu",
    OpClass.FDIV: "fpu",
    OpClass.LOAD: "mem",
    OpClass.STORE: "mem",
    OpClass.BRANCH: "branch",
    OpClass.JUMP: "branch",
    OpClass.NOP: "ialu",
}


@dataclass(frozen=True)
class CoreParams:
    """Full configuration of one out-of-order core.

    Attributes:
        name: Human-readable label used in reports.
        fetch_width / issue_width / commit_width: Per-cycle widths.
        rob_entries / iq_entries / lsq_entries: Window structure sizes.
        fu_pool: Functional unit counts per pool (see FU_POOL_OF_CLASS).
        latencies: Execution latency per op class.
        branch: Branch predictor configuration.
        l1d / l1i / l2: Cache configurations (l2 is the shared level).
        memory_latency: DRAM access latency in cycles.
        mispredict_penalty: Front-end redirect cycles after a resolved
            mispredicted branch (on top of waiting for resolution).
        prefetch_degree: Lines the L1D's stride prefetcher fetches ahead
            of an armed stream (see :mod:`repro.uarch.cache.prefetch`);
            0, the default, builds no prefetcher.  Kept out of the
            ``repr`` and added by :meth:`key` only when set, so the keys
            of configurations without a prefetcher never change.
    """

    name: str = "core"
    fetch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_entries: int = 128
    iq_entries: int = 48
    lsq_entries: int = 64
    fu_pool: Dict[str, int] = field(default_factory=lambda: dict(MEDIUM_FU_POOL))
    latencies: Dict[OpClass, int] = field(
        default_factory=lambda: dict(DEFAULT_LATENCIES))
    branch: BranchPredictorParams = field(default_factory=BranchPredictorParams)
    l1d: CacheParams = field(default_factory=lambda: CacheParams(
        size_bytes=32 * 1024, assoc=8, hit_latency=3))
    l1i: CacheParams = field(default_factory=lambda: CacheParams(
        size_bytes=32 * 1024, assoc=4, hit_latency=1))
    l2: CacheParams = field(default_factory=lambda: CacheParams(
        size_bytes=4 * 1024 * 1024, assoc=16, hit_latency=15, mshrs=16))
    memory_latency: int = 150
    mispredict_penalty: int = 10
    prefetch_degree: int = field(default=0, repr=False)

    def with_(self, **changes) -> "CoreParams":
        """Copy with the given fields replaced (dataclass ``replace``)."""
        return replace(self, **changes)

    def key(self) -> str:
        """The configuration's identity in job and checkpoint keys: the
        ``repr``, plus a prefetch marker when a prefetcher is set."""
        if self.prefetch_degree:
            return f"{self!r}|prefetch={self.prefetch_degree}"
        return repr(self)


def small_core_config() -> CoreParams:
    """The paper's *small* 2-wide core building block."""
    return CoreParams(
        name="small",
        fetch_width=2,
        issue_width=2,
        commit_width=2,
        rob_entries=48,
        iq_entries=24,
        lsq_entries=24,
        fu_pool=dict(SMALL_FU_POOL),
        branch=BranchPredictorParams(
            kind="gshare", table_entries=4096, history_bits=12,
            btb_entries=1024, ras_entries=8),
        l1d=CacheParams(size_bytes=32 * 1024, assoc=4, hit_latency=2),
        l1i=CacheParams(size_bytes=32 * 1024, assoc=2, hit_latency=1),
        l2=CacheParams(size_bytes=1024 * 1024, assoc=8,
                       hit_latency=12, mshrs=8),
        mispredict_penalty=8,
    )


def medium_core_config() -> CoreParams:
    """The paper's *medium* 4-wide core building block."""
    return CoreParams(
        name="medium",
        fetch_width=4,
        issue_width=4,
        commit_width=4,
        rob_entries=128,
        iq_entries=48,
        lsq_entries=64,
        fu_pool=dict(MEDIUM_FU_POOL),
        branch=BranchPredictorParams(
            kind="tournament", table_entries=16384, history_bits=14,
            btb_entries=2048, ras_entries=16),
        l1d=CacheParams(size_bytes=32 * 1024, assoc=8, hit_latency=3),
        l1i=CacheParams(size_bytes=32 * 1024, assoc=4, hit_latency=1),
        l2=CacheParams(size_bytes=4 * 1024 * 1024, assoc=16,
                       hit_latency=15, mshrs=16),
        mispredict_penalty=10,
    )


CONFIGS = {
    "small": small_core_config,
    "medium": medium_core_config,
}


def core_config(name: str) -> CoreParams:
    """Look up a named reference configuration (``small`` / ``medium``)."""
    try:
        return CONFIGS[name]()
    except KeyError:
        raise KeyError(
            f"unknown config {name!r}; available: {sorted(CONFIGS)}") from None
