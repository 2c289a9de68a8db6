"""Adaptive Fg-STP: engage partitioned mode only when it pays.

The paper's scheme *reconfigures* two cores at coarse boundaries — the
second core is borrowed for single-thread execution only while that
helps.  This module models the mode decision: a short sampling window is
simulated in both modes (single core vs. Fg-STP pair) and the faster
mode runs the remainder of the region.

Sampling cost is charged explicitly: the sampled instructions execute
once in the chosen mode's timing (the losing mode's sample run is the
hardware's performance-counter experiment, modelled as overlapped with
execution, plus a fixed reconfiguration penalty per switch).

The Fg-STP probe runs first.  The decision gives ties to Fg-STP, so the
single-core probe runs with the Fg-STP probe's cycle count as its limit
(``MachineShell._run_measured``) and stops at the first loop top from
which it could at best tie; a stopped probe is never resumed, and its
snapshot is dropped with it.

The simulator does not simulate the winner's sample twice either.  A
probe and its mode's region run share the machine, the warm-up and the
records up to the sample's end (the probes run a prefix slice of the
region's measured records, a slice of the trace's own records that the
machines number by position), so they are one computation up to the
first loop top whose commit point lies within the machine's lookahead
(``MachineShell._lookahead``) of that end.  Each probe keeps an
in-memory snapshot there, and the winner's region run resumes from it;
a probe whose sample covers the whole region already is the region
run.  With a commit hook or tracer attached, the snapshot is taken at
commit 0, so the observers see every commit of the region run and
nothing of the probes.  Either way the result is bit-identical to
re-simulating the region from its start.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ckpt.manager import Checkpointer, Snapshot
from ..ckpt.state import (MachineCheckpoint, dumps_state,
                          fingerprint_scope)
from ..integrity.errors import SimulationError
from ..stats.cpistack import CPIStack, cpistack_of, maybe_validate
from ..stats.result import SimResult
from ..trace.record import TraceRecord
from ..uarch.params import CoreParams
from ..uarch.pipeline.machine import SingleCoreMachine
from ..uarch.warmup import split_warmup
from .orchestrator import FgStpMachine
from .params import FgStpParams


#: The region loop's accumulators, captured at region boundaries.
_REGION_STATE = ("region_index", "total_cycles", "total_instructions",
                 "switches", "modes", "stacks", "previous_mode")


class _OffsetUop:
    """Read-only uop view whose ``seq`` is shifted into the global
    measured stream.

    Region machines number their measured records by position, so each
    region's seqs restart at 0 and a commit hook attached to the
    adaptive machine would otherwise see the same seq repeatedly.  This
    proxy presents ``local seq + region offset`` while forwarding every
    other attribute to the real uop.
    """

    __slots__ = ("_uop", "seq")

    def __init__(self, uop, seq: int):
        self._uop = uop
        self.seq = seq

    def __getattr__(self, name):
        return getattr(self._uop, name)

    def __repr__(self) -> str:
        return f"<OffsetUop seq={self.seq} of {self._uop!r}>"


class AdaptiveFgStpMachine:
    """Fg-STP with coarse-grain engage/disengage decisions.

    Args:
        base: Per-core configuration.
        fgstp: Fg-STP mechanism parameters.
        sample_instructions: Length of the decision sample at the start
            of each region.
        region_instructions: Re-evaluation granularity (a mode decision
            holds for one region).
        reconfigure_penalty: Cycles charged at every mode switch (cache
            quiescing, fetch redirect to the partition unit).
        watchdog_window: Forward-progress hang window forwarded to every
            region machine (``None`` = environment default).
        commit_hook: Optional observer called as ``hook(uop, cycle)``
            once per architecturally retired measured instruction, with
            ``uop.seq`` global across regions (0-based over the whole
            measured stream).  Only the chosen mode's full-region run is
            observed — the sampling probes model performance counters
            and retire nothing architecturally.  Cycles restart at every
            region boundary; when the hook object exposes
            ``new_epoch()`` it is invoked at each boundary so stream
            checkers can reset per-region clock expectations.
        tracer: Optional :class:`~repro.obs.tracer.PipelineTracer`.
            Attached to each region's *winning* full run (the sampling
            probes stay invisible, like the commit hook) with epoch
            offsets shifting region-local cycles/seqs into the global
            timeline; mode switches appear as ``reconfig`` instants
            spanning the reconfiguration penalty.
    """

    def __init__(self, base: CoreParams,
                 fgstp: Optional[FgStpParams] = None,
                 sample_instructions: int = 4000,
                 region_instructions: int = 20000,
                 reconfigure_penalty: int = 200,
                 watchdog_window: Optional[int] = None,
                 skip_ahead: Optional[bool] = None,
                 commit_hook=None, tracer=None,
                 checkpoint_interval: Optional[int] = None,
                 checkpoint_sink=None):
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_sink = checkpoint_sink
        self.commit_hook = commit_hook
        self.tracer = tracer
        if sample_instructions <= 0:
            raise ValueError("sample_instructions must be positive")
        if region_instructions < sample_instructions:
            raise ValueError(
                "region_instructions must be >= sample_instructions")
        self.base = base
        self.fgstp = fgstp or FgStpParams()
        self.sample_instructions = sample_instructions
        self.region_instructions = region_instructions
        self.reconfigure_penalty = reconfigure_penalty
        self.watchdog_window = watchdog_window
        #: Forwarded to every region machine (sample and full runs);
        #: ``None`` lets each follow the REPRO_SKIP_AHEAD environment.
        self.skip_ahead = skip_ahead

    @fingerprint_scope()
    def run(self, trace: Sequence[TraceRecord], workload: str = "trace",
            warmup: int = 0,
            resume_from: Optional[MachineCheckpoint] = None) -> SimResult:
        """Simulate *trace*, choosing the better mode per region.

        Checkpoints are taken at *region boundaries* (regions run on
        fresh sub-machines, so between regions the only live state is
        the accumulator set), and a resumed run restarts the region
        loop there — bit-identical to a straight-through run because
        :meth:`_regions` is deterministic.  Resume and checkpoints
        follow :meth:`Checkpointer.begin`, as for the shell machines;
        the last region's start is the last commit count polled.
        """
        regions = self._regions(trace, warmup)
        state, ckpt = Checkpointer.begin(
            self, "fgstp-adaptive", workload, trace, warmup, _REGION_STATE,
            resume_from, horizon=sum(len(records) - lead
                                     for records, lead in regions[:-1]))
        if state is None:
            state = {"region_index": 0, "total_cycles": 0,
                     "total_instructions": 0, "switches": 0, "modes": [],
                     "stacks": [], "previous_mode": None}
        try:
            for index in range(state["region_index"], len(regions)):
                state["region_index"] = index
                if ckpt is not None and ckpt.due(state["total_instructions"]):
                    ckpt.take(state["total_cycles"],
                              state["total_instructions"],
                              lambda: dumps_state(state))
                region_trace, region_warmup = regions[index]
                previous_mode = state["previous_mode"]
                mode, region_result = self._run_region(
                    region_trace, region_warmup, workload,
                    state["total_instructions"],
                    cycle_offset=state["total_cycles"],
                    previous_mode=previous_mode)
                cycles = region_result.cycles
                stack = cpistack_of(region_result)
                if previous_mode is not None and mode != previous_mode:
                    state["switches"] += 1
                    cycles += self.reconfigure_penalty
                    if stack is not None:
                        stack = stack.with_overhead(
                            "reconfig", self.reconfigure_penalty)
                if stack is not None:
                    state["stacks"].append(stack)
                state["previous_mode"] = mode
                state["modes"].append(mode)
                state["total_cycles"] += cycles
                state["total_instructions"] += (len(region_trace)
                                                - region_warmup)
        except SimulationError as error:
            if ckpt is not None:
                ckpt.anchor(error)
            raise
        modes = state["modes"]
        extra = {
            "modes": modes,
            "switches": state["switches"],
            "fgstp_regions": modes.count("fgstp"),
            "single_regions": modes.count("single"),
        }
        if state["stacks"]:
            extra["cpistack"] = maybe_validate(CPIStack.concat(
                state["stacks"], machine="fgstp-adaptive")).as_dict()
        return SimResult(
            machine="fgstp-adaptive",
            config=self.base.name,
            workload=workload,
            cycles=state["total_cycles"],
            instructions=state["total_instructions"],
            extra=extra,
        )

    def checkpoint_params_key(self) -> str:
        """Configuration identity for checkpoint compatibility checks."""
        return (f"{self.base.key()}|{self.fgstp.key()}"
                f"|sample={self.sample_instructions}"
                f"|region={self.region_instructions}"
                f"|reconfig={self.reconfigure_penalty}")

    def _regions(self, trace: Sequence[TraceRecord], warmup: int):
        """Split the trace into regions of ``(records, warmup)``.

        A region's records are a slice of *trace*: its warm-up prefix,
        then its measured records, which the region machines number by
        position.  The first region absorbs the run-level warmup (which
        :meth:`_run_region` validates); later regions use the preceding
        region's tail as their (shorter) warm-up so caches and
        predictors stay trained across boundaries.
        """
        region = self.region_instructions
        carry = min(4000, region // 4)
        regions = []
        start = 0
        n = len(trace)
        while start < n:
            if regions:
                lead, end = max(0, start - carry), min(n, start + region)
            else:
                lead, start, end = 0, warmup, min(n, warmup + region)
            regions.append((trace[lead:end], start - lead))
            start = end
        return regions

    def _region_hook(self, offset: int):
        """Shim translating a region machine's local commit stream into
        the global one: shifts seq by *offset* and announces the region
        boundary (cycles restart) to epoch-aware hooks."""
        user_hook = self.commit_hook
        if user_hook is None:
            return None
        new_epoch = getattr(user_hook, "new_epoch", None)
        if new_epoch is not None:
            new_epoch()

        def shim(uop, cycle: int) -> None:
            user_hook(_OffsetUop(uop, uop.seq + offset), cycle)

        return shim

    def _machine(self, mode: str, **observers):
        """A fresh region machine for *mode*.  Checkpointing is pinned
        off: the adaptive machine checkpoints at region boundaries
        itself, and env-driven inner snapshots would be both redundant
        and keyed to a region's slice rather than the whole trace."""
        options = dict(watchdog_window=self.watchdog_window,
                       skip_ahead=self.skip_ahead, checkpoint_interval=0,
                       **observers)
        if mode == "fgstp":
            return FgStpMachine(self.base, self.fgstp, **options)
        return SingleCoreMachine(self.base, **options)

    def _probe(self, mode: str, prefix, sample, workload: str,
               covered: bool, observed: bool,
               limit: Optional[int] = None):
        """Run *mode*'s probe on *sample*: ``(result, snapshot)``, with
        ``None`` for a result stopped at the cycle *limit*.  Unless the
        probe is the region run (*covered*), its snapshot is taken at
        commit 0 with observers attached, else a lookahead before the
        sample's end."""
        machine = self._machine(mode)
        snapshot = None
        if not covered:
            mark = len(sample) - machine._lookahead()
            snapshot = Snapshot(0 if observed else max(0, mark))
        return machine._run_measured(prefix, sample, workload, snapshot,
                                     limit=limit), snapshot

    def _run_region(self, region_trace, region_warmup, workload,
                    offset: int = 0, cycle_offset: int = 0,
                    previous_mode: Optional[str] = None):
        # The machines number the measured records by position, so each
        # probe's sample is a prefix of them as they stand.
        prefix, measured = split_warmup(region_trace, region_warmup)
        sample = measured[:self.sample_instructions]
        # Only the winning mode's region run retires the region
        # architecturally: the probes model performance counters and
        # stay invisible to the commit hook and the tracer.  That run
        # is the winning probe itself or resumes from its snapshot (see
        # the module docstring).
        observed = self.commit_hook is not None or self.tracer is not None
        covered = len(sample) == len(measured) and not observed
        # The Fg-STP probe runs first.  Ties go to Fg-STP, so the single
        # probe stops (returns None) at the first loop top from which
        # its cycle count would reach the Fg-STP probe's: from there it
        # cannot win.  A stopped probe's snapshot is dropped with it.
        fgstp = self._probe("fgstp", prefix, sample, workload, covered,
                            observed)
        single = self._probe("single", prefix, sample, workload, covered,
                             observed, limit=fgstp[0].cycles)
        mode = ("fgstp" if single[0] is None
                or fgstp[0].cycles <= single[0].cycles else "single")
        result, snapshot = fgstp if mode == "fgstp" else single
        del fgstp, single
        hook = self._region_hook(offset)
        tracer = self.tracer
        if tracer is not None:
            if previous_mode is not None and mode != previous_mode:
                # The switch penalty occupies the global timeline before
                # the region's first cycle (matching run()'s accounting
                # of cycles += reconfigure_penalty for this region).
                tracer.instant("reconfig", cycle_offset,
                               detail=f"{previous_mode}->{mode}",
                               dur=self.reconfigure_penalty)
                cycle_offset += self.reconfigure_penalty
            tracer.begin_epoch(cycle_offset, offset)
        if snapshot is not None:
            result = self._machine(mode, commit_hook=hook, tracer=tracer) \
                ._run_measured(prefix, measured, workload,
                               payload=snapshot.payload)
        return mode, result


def simulate_fgstp_adaptive(trace: Sequence[TraceRecord], base: CoreParams,
                            fgstp: Optional[FgStpParams] = None,
                            workload: str = "trace",
                            warmup: int = 0) -> SimResult:
    """Convenience wrapper around :class:`AdaptiveFgStpMachine`."""
    return AdaptiveFgStpMachine(base, fgstp).run(trace, workload=workload,
                                                 warmup=warmup)
