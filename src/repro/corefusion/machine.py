"""Core Fusion baseline: two cores fused into one wide machine.

Core Fusion (Ipek et al., ISCA 2007) merges the pipelines of adjacent
cores: a shared fetch unit feeds a collective rename/steer stage that
distributes instructions over the fused cores' back-ends, which exchange
operands over a crossbar.  The fused machine behaves like one core with:

* the *sum* of the constituent cores' widths and window resources,
* **fusion overheads** that are the whole point of the comparison:

  - added front-end pipeline depth for the fetch-merge / steer crossbars,
    which lengthens the branch-misprediction redirect path;
  - operand-crossbar latency whenever a value produced in one fused
    back-end is consumed in the other;
  - per-back-end issue limits (steering cannot move an already-steered
    instruction, so each back-end issues at most its native width).

We model a fused pair as a single :class:`CycleCore` with two *clusters*:
cluster steering follows dependences (with round-robin fallback), each
cluster is limited to the base core's issue width, and cross-cluster
operand delivery costs ``operand_crossbar_latency`` extra cycles.
L1 caches are banked across the pair (modelled as doubled capacity).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..stats.result import SimResult
from ..trace.record import TraceRecord
from ..uarch.params import CoreParams
from ..uarch.pipeline.machine import SingleCoreMachine


def default_frontend_overhead(base: CoreParams) -> int:
    """Fusion front-end depth added over *base* (redirect cycles).

    Two stages at fetch merge plus a rename crossbar whose depth grows
    with the fused machine's width (an 8-wide crossbar has more ports
    and longer wires than a 4-wide one): ``2 + issue_width``.
    """
    return 2 + base.issue_width


def default_crossbar_latency(base: CoreParams) -> int:
    """Operand-crossbar cycles between the fused back-ends.

    Wire-delay scales with the fused width: ``1 + issue_width // 2``.
    """
    return 1 + base.issue_width // 2


def default_lsq_penalty(base: CoreParams) -> int:
    """Banked-LSQ / L1D steering penalty per data-cache access."""
    return 1 + base.issue_width // 2


def fused_params(base: CoreParams,
                 frontend_overhead: Optional[int] = None,
                 lsq_crossing_penalty: Optional[int] = None) -> CoreParams:
    """Configuration of the machine formed by fusing two *base* cores.

    Args:
        base: The constituent core.
        frontend_overhead: Extra redirect cycles added by the fusion
            front-end crossbars (fetch merge + rename crossbar); defaults
            to :func:`default_frontend_overhead`.
        lsq_crossing_penalty: Extra cycles on every data-cache access.
            Core Fusion distributes the LSQ and L1D across the fused
            cores, steering memory operations to banks by address; the
            steering/bank-crossing path lengthens the average load-use
            latency.  Defaults to :func:`default_lsq_penalty`.
            (Fg-STP's cores keep their native, unmodified L1D path — the
            "minimum and localized impact" asymmetry the paper's
            comparison rests on.)
    """
    if frontend_overhead is None:
        frontend_overhead = default_frontend_overhead(base)
    if lsq_crossing_penalty is None:
        lsq_crossing_penalty = default_lsq_penalty(base)
    fu_pool: Dict[str, int] = {name: 2 * count
                               for name, count in base.fu_pool.items()}
    return base.with_(
        name=f"fused-{base.name}",
        fetch_width=2 * base.fetch_width,
        issue_width=2 * base.issue_width,
        commit_width=2 * base.commit_width,
        rob_entries=2 * base.rob_entries,
        iq_entries=2 * base.iq_entries,
        lsq_entries=2 * base.lsq_entries,
        fu_pool=fu_pool,
        l1d=base.l1d.__class__(
            size_bytes=2 * base.l1d.size_bytes, assoc=base.l1d.assoc,
            line_bytes=base.l1d.line_bytes,
            hit_latency=base.l1d.hit_latency + lsq_crossing_penalty,
            mshrs=2 * base.l1d.mshrs),
        l1i=base.l1i.__class__(
            size_bytes=2 * base.l1i.size_bytes, assoc=base.l1i.assoc,
            line_bytes=base.l1i.line_bytes,
            hit_latency=base.l1i.hit_latency, mshrs=base.l1i.mshrs),
        mispredict_penalty=base.mispredict_penalty + frontend_overhead,
    )


class CoreFusionMachine(SingleCoreMachine):
    """Two *base* cores fused, running one thread.

    The fused pair is one wide, two-cluster :class:`CycleCore` behind the
    single-core run loop; results report the *base* configuration name.

    Args:
        base: The constituent core configuration (the same one the
            single-core baseline and each Fg-STP core use).
        frontend_overhead: Extra mispredict-redirect cycles from the
            fusion crossbars — two added stages at fetch merge plus two
            at the rename crossbar (ISCA'07 model; default 4).
        operand_crossbar_latency: Cycles for a value to cross between the
            fused back-ends (paper-family default: 2).
        lsq_crossing_penalty: Extra cycles on every data-cache access
            (see :func:`fused_params`).
        **options: Run-loop options (``max_cycles``, ``commit_hook``,
            ``tracer``, ...), documented on
            :class:`~repro.uarch.pipeline.machine.MachineShell`.
    """

    def __init__(self, base: CoreParams,
                 frontend_overhead: Optional[int] = None,
                 operand_crossbar_latency: Optional[int] = None,
                 lsq_crossing_penalty: Optional[int] = None,
                 **options):
        self.base = base
        self.frontend_overhead = (
            default_frontend_overhead(base) if frontend_overhead is None
            else frontend_overhead)
        self.operand_crossbar_latency = (
            default_crossbar_latency(base) if operand_crossbar_latency is None
            else operand_crossbar_latency)
        self.lsq_crossing_penalty = (
            default_lsq_penalty(base) if lsq_crossing_penalty is None
            else lsq_crossing_penalty)
        super().__init__(
            fused_params(base, self.frontend_overhead,
                         self.lsq_crossing_penalty),
            num_clusters=2,
            cross_cluster_latency=self.operand_crossbar_latency,
            cluster_issue_width=base.issue_width,
            machine_label="corefusion",
            **options)

    def run(self, trace: Sequence[TraceRecord], workload: str = "trace",
            warmup: int = 0, resume_from=None) -> SimResult:
        """Simulate *trace* on the fused pair."""
        result = super().run(trace, workload=workload, warmup=warmup,
                             resume_from=resume_from)
        result.config = self.base.name
        result.extra["fusion"] = {
            "frontend_overhead": self.frontend_overhead,
            "operand_crossbar_latency": self.operand_crossbar_latency,
            "lsq_crossing_penalty": self.lsq_crossing_penalty,
        }
        return result


def simulate_core_fusion(trace: Sequence[TraceRecord], base: CoreParams,
                         workload: str = "trace", warmup: int = 0,
                         **overheads) -> SimResult:
    """Convenience wrapper: fuse two *base* cores and run *trace*."""
    return CoreFusionMachine(base, **overheads).run(
        trace, workload=workload, warmup=warmup)
