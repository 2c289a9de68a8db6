"""Frozen reference copy of the adaptive machine's region step.

``ReferenceAdaptiveFgStpMachine`` overrides only ``_run_region``, with
the body kept byte-for-byte from the version that
:mod:`repro.fgstp.adaptive` replaced: it probes both modes on the
region's sample, then simulates the winning mode's whole region again
from its first instruction.  ``test_adaptive_resume`` requires the
machine under test, which reuses or resumes its winning probe instead,
to produce exactly this version's results, commit stream and trace
events.  Do not edit it to follow a behaviour change: a deliberate
change to the adaptive machine's timing replaces this file.
"""

from __future__ import annotations

from typing import Optional

from repro.fgstp.adaptive import AdaptiveFgStpMachine
from repro.fgstp.orchestrator import FgStpMachine
from repro.uarch.pipeline.machine import SingleCoreMachine
from repro.uarch.warmup import reseq


class ReferenceAdaptiveFgStpMachine(AdaptiveFgStpMachine):
    """The adaptive machine with its region re-run from the start."""

    def _run_region(self, region_trace, region_warmup, workload,
                    offset: int = 0, cycle_offset: int = 0,
                    previous_mode: Optional[str] = None):
        window = self.watchdog_window
        skip = self.skip_ahead
        sample_end = min(len(region_trace),
                         region_warmup + self.sample_instructions)
        sample = reseq(region_trace[:sample_end])
        # Region machines run with checkpointing pinned off: the
        # adaptive machine checkpoints at region boundaries itself, and
        # env-driven inner snapshots would be both redundant and taken
        # under region-local (re-sequenced) traces.
        single_sample = SingleCoreMachine(
            self.base, watchdog_window=window, skip_ahead=skip,
            checkpoint_interval=0).run(
            sample, workload=workload, warmup=region_warmup)
        fgstp_sample = FgStpMachine(
            self.base, self.fgstp, watchdog_window=window,
            skip_ahead=skip, checkpoint_interval=0).run(
            sample, workload=workload, warmup=region_warmup)
        # Only the winning mode's full-region run retires the region
        # architecturally; the sample runs above model performance
        # counters and stay invisible to the commit hook (and to the
        # tracer — they model performance counters, not retirement).
        hook = self._region_hook(offset)
        mode = ("fgstp" if fgstp_sample.cycles <= single_sample.cycles
                else "single")
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
        if mode == "fgstp":
            result = FgStpMachine(
                self.base, self.fgstp, watchdog_window=window,
                skip_ahead=skip, commit_hook=hook, tracer=tracer,
                checkpoint_interval=0).run(
                region_trace, workload=workload, warmup=region_warmup)
        else:
            result = SingleCoreMachine(
                self.base, watchdog_window=window, skip_ahead=skip,
                commit_hook=hook, tracer=tracer,
                checkpoint_interval=0).run(
                region_trace, workload=workload, warmup=region_warmup)
        return mode, result
