"""The run-loop shell of the cycle-level machines, and the single core.

:class:`MachineShell` owns everything around one simulated cycle:
warm-up, fresh start or checkpoint restore, periodic checkpoints, the
``max_cycles`` ceiling and the forward-progress watchdog, the idle-cycle
skip-ahead jump, the end-of-run drain check, the CPI stack, the result
and the crash-forensics payloads.  A machine supplies only its own
cycle, through the hooks the shell documents.

:class:`SingleCoreMachine` is both the paper's single-core baseline and
the base of the fused Core Fusion machine (a fused machine is a single
*wider* clustered core from the timing model's perspective).
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterable, Optional, Sequence, Tuple

from ...ckpt.manager import Checkpointer, Snapshot
from ...ckpt.state import (MachineCheckpoint, dumps_state,
                           fingerprint_scope, loads_state)
from ...integrity.errors import (SimulationError, SimulationHang,
                                 SimulationLimit)
from ...integrity.forensics import uop_brief
from ...integrity.watchdog import Watchdog
from ...stats.cpistack import CPIStack, maybe_validate
from ...stats.result import SimResult
from ...trace.record import TraceRecord
from ..branch.btb import FrontEndPredictor
from ..cache.hierarchy import CacheHierarchy
from ..params import CoreParams
from ..warmup import split_warmup, warm_state
from .core import NO_EVENT, CycleCore, skip_ahead_enabled
from .fetch import SelfFetchUnit
from .uop import Uop

#: Committed uops remembered for crash forensics ("what retired last").
RECENT_COMMITS = 16


def relink(uops: Iterable[Uop], trace: Sequence[TraceRecord]) -> None:
    """Point each restored uop at the caller's record of its seq.

    A checkpoint's uops unpickle with copies of their records; without
    this, a resumed run would retire the copies.
    """
    for uop in uops:
        uop.record = trace[uop.seq]


class MachineShell:
    """Run loop shared by the machines built from :class:`CycleCore`.

    Args:
        machine_label: Name recorded in results, errors and checkpoints.
        config_name: Configuration name recorded in results.
        max_cycles: Safety valve — a run exceeding this raises rather
            than spinning forever on a model bug.
        watchdog_window: Forward-progress hang window in cycles
            (``None`` = environment default, ``0`` = disabled; see
            :mod:`repro.integrity.watchdog`).
        skip_ahead: Idle-cycle skip-ahead: when a cycle makes no
            progress anywhere, jump the clock straight to the next
            scheduled event (execution completion, redirect resume,
            I-cache fill, watchdog expiry, ``max_cycles``), charging
            the skipped cycles to the same CPI-stack bucket the naive
            loop would have — results are bit-identical either way.
            ``None`` (default) follows the ``REPRO_SKIP_AHEAD``
            environment variable (on unless set to ``0``).
        commit_hook: Optional observer called as ``hook(uop, cycle)``
            once per architecturally retired instruction, in program
            order.  ``None`` (the default) costs nothing on the hot
            path; the commit-stream oracle (:mod:`repro.oracle`)
            attaches here.
        tracer: Optional :class:`~repro.obs.tracer.PipelineTracer`
            recording per-uop lifecycle and watchdog events.  Same
            zero-cost contract as ``commit_hook``: ``None`` adds no
            per-cycle work and an attached tracer never changes the
            :class:`SimResult`.
        checkpoint_interval: Committed-instruction checkpoint cadence
            (``None`` = follow ``REPRO_CHECKPOINT_INTERVAL``; 0 = off).
        checkpoint_sink: Object whose ``save`` the snapshots go to, and
            whose ``load`` finds a run's latest one (``None`` = the
            default on-disk store; see :mod:`repro.ckpt.manager`).

    A machine provides ``cores`` (its :class:`CycleCore` objects), a
    ``predictor``, :meth:`checkpoint_params_key`, the class attributes
    below, and the hooks :meth:`_warm`, :meth:`_start`, :meth:`_step`,
    :meth:`_next_event`, :meth:`_charge_idle`, :meth:`_lookahead`,
    :meth:`_transient`, :meth:`_adopt`, :meth:`_extra` and
    :meth:`_snapshot`.
    """

    #: Attributes a checkpoint captures besides :data:`_SHELL_STATE`.
    _STATE: Tuple[str, ...] = ()
    #: Result ``extra`` fields a failure's partial statistics carry.
    _PARTIAL_FIELDS: Tuple[str, ...] = ()
    #: Hang ``detail`` when the watchdog fires with work in flight.
    _BUSY_HANG = "core"
    #: Shell-owned dynamic state every checkpoint captures.
    _SHELL_STATE = ("watchdog", "recent_commits", "skipped_cycles",
                    "committed")

    def __init__(self, machine_label: str, config_name: str,
                 max_cycles: int = 200_000_000,
                 watchdog_window: Optional[int] = None,
                 skip_ahead: Optional[bool] = None,
                 commit_hook=None, tracer=None,
                 checkpoint_interval: Optional[int] = None,
                 checkpoint_sink=None):
        self.machine_label = machine_label
        self.config_name = config_name
        self.max_cycles = max_cycles
        self.watchdog = Watchdog(watchdog_window)
        self.skip_ahead = skip_ahead_enabled(skip_ahead)
        self.commit_hook = commit_hook
        self.tracer = tracer
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_sink = checkpoint_sink
        #: Measured instructions architecturally committed so far.
        self.committed = 0
        #: Diagnostic: cycles the last run bridged via skip-ahead
        #: (deliberately *not* part of the :class:`SimResult`, which
        #: must be bit-identical with and without the fast path).
        self.skipped_cycles = 0
        self.recent_commits = deque(maxlen=RECENT_COMMITS)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _warm(self, prefix: Sequence[TraceRecord]) -> None:
        """Functionally warm caches and predictors on *prefix*."""
        raise NotImplementedError

    def _start(self, trace: Sequence[TraceRecord]) -> None:
        """Prepare a fresh run of the measured *trace*."""
        raise NotImplementedError

    def _step(self, cycle: int) -> int:
        """Simulate one cycle; truthy when anything made progress.

        Advances :attr:`committed` and :attr:`recent_commits`.  A falsy
        return means the cycle replayed an idle one — the precondition
        for the skip-ahead jump.
        """
        raise NotImplementedError

    def _next_event(self, now: int) -> int:
        """Earliest cycle after the idle cycle *now* at which the
        machine can change (the shell adds the watchdog expiry and the
        ``max_cycles`` ceiling)."""
        raise NotImplementedError

    def _charge_idle(self, first: int, count: int) -> None:
        """Account *count* skipped idle cycles from *first* exactly as
        that many naive :meth:`_step` calls would have."""
        raise NotImplementedError

    def _lookahead(self) -> int:
        """A bound on how far past the commit point at its start one
        cycle can read the measured trace, or compare a cursor with the
        trace's end.

        Two runs whose traces agree on their first *n* records are
        therefore the same computation up to the first loop top where
        ``committed >= n - lookahead`` (see :meth:`_run_measured`).
        """
        raise NotImplementedError

    def _transient(self):
        """``(owner, attribute)`` pairs a checkpoint leaves out (the
        trace, observer callbacks); :meth:`_adopt` reinstalls them."""
        return []

    def _adopt(self, trace: Sequence[TraceRecord]) -> None:
        """Reattach a restored checkpoint's state to the measured
        *trace* (every uop that can still retire gets the caller's
        record, see :func:`relink`) and to this machine's observers."""
        raise NotImplementedError

    def _extra(self) -> dict:
        """The result's ``extra`` statistics, minus the CPI stack."""
        raise NotImplementedError

    def _snapshot(self) -> dict:
        """The machine's own part of :meth:`failure_snapshot`."""
        raise NotImplementedError

    def checkpoint_params_key(self) -> str:
        """Configuration identity for checkpoint compatibility checks."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    @fingerprint_scope()
    def _simulate(self, trace: Sequence[TraceRecord], workload: str,
                  warmup: int,
                  resume_from: Optional[MachineCheckpoint]) -> SimResult:
        """Run *trace* to completion (see :meth:`SingleCoreMachine.run`).

        :meth:`Checkpointer.begin` decides whether the run resumes and
        whether it checkpoints; its lookup, the restore check and the
        checkpoints share one trace fingerprint.
        """
        if not trace:
            return SimResult(self.machine_label, self.config_name,
                             workload, 0, 0)
        prefix, measured = (split_warmup(trace, warmup) if warmup
                            else ((), trace))
        state, ckpt = Checkpointer.begin(
            self, self.machine_label, workload, trace, warmup,
            self._SHELL_STATE + self._STATE + ("cycle",), resume_from,
            horizon=len(measured) - 1)
        cycle = (self._fresh(prefix, measured) if state is None
                 else self._adopt_state(state, measured))
        try:
            return self._run_loop(workload, cycle, len(measured), ckpt)
        except SimulationError as error:
            if ckpt is not None:
                ckpt.anchor(error)
            raise

    def _run_measured(self, prefix: Sequence[TraceRecord],
                      measured: Sequence[TraceRecord], workload: str,
                      snapshot: Optional[Snapshot] = None,
                      payload: Optional[bytes] = None,
                      limit: Optional[int] = None) -> Optional[SimResult]:
        """Run the *measured* records to completion after the warm-up
        *prefix*; no periodic checkpoints.  A record's position in
        *measured* is its seq, whatever its ``seq`` field holds.

        With a cycle *limit* the run stops, and returns ``None``, at the
        first loop top from which its result would take *limit* cycles
        or more: one at cycle ``limit - 1`` or later with records left
        to commit.  A stopped run raises no hang or limit failure past
        that point.

        Without *payload* the run starts fresh, warmed on *prefix*, and
        polls *snapshot* in place of the periodic checkpointer.  With a
        :class:`Snapshot`'s *payload* it adopts that state instead.  A
        machine of this class and configuration must have taken it
        after the same warm-up, on measured records that agree with
        *measured* up to :meth:`_lookahead` records past the snapshot's
        commit point.  Up to the snapshot the two runs were one
        computation, so the result is bit-identical to a fresh run of
        *measured*.  Nothing checks that agreement: the caller
        guarantees it.
        """
        if payload is None:
            cycle = self._fresh(prefix, measured)
        else:
            cycle = self._adopt_state(loads_state(payload), measured)
        return self._run_loop(workload, cycle, len(measured), snapshot,
                              NO_EVENT if limit is None else limit - 1)

    def _fresh(self, prefix: Sequence[TraceRecord],
               measured: Sequence[TraceRecord]) -> int:
        """Warm on *prefix* and start a run of *measured* at cycle 0."""
        if prefix:
            self._warm(prefix)
        self.committed = self.skipped_cycles = 0
        self.watchdog.reset()
        self.recent_commits.clear()
        self._start(measured)
        return 0

    def _run_loop(self, workload: str, cycle: int, total: int,
                  ckpt: Optional[Checkpointer | Snapshot],
                  stop_at: int = NO_EVENT) -> Optional[SimResult]:
        """Run from *cycle* until *total* records commit; ``None`` when
        a loop top at or past cycle *stop_at* still has records left."""
        watchdog = self.watchdog
        skip = self.skip_ahead
        max_cycles = self.max_cycles
        step = self._step
        while self.committed < total:
            if cycle >= stop_at:
                return None
            committed = self.committed
            if ckpt is not None and ckpt.due(committed):
                ckpt.take(cycle, committed,
                          lambda: self._checkpoint_payload(cycle))
            if cycle > max_cycles:
                raise self._failure(
                    SimulationLimit, cycle, total,
                    f"max_cycles {max_cycles} exceeded",
                    f"exceeded {max_cycles} cycles with "
                    f"{committed}/{total} committed")
            if watchdog.expired(cycle, committed):
                stalled = watchdog.stalled_for(cycle)
                busy = any(core.busy() for core in self.cores)
                raise self._failure(
                    SimulationHang, cycle, total,
                    f"no commit for {stalled} cycles",
                    f"no commit for {stalled} cycles at cycle {cycle} "
                    f"with {committed}/{total} committed "
                    f"({'work in flight' if busy else 'frontend'})",
                    detail=self._BUSY_HANG if busy else "frontend")
            progress = step(cycle)
            cycle += 1
            if skip and not progress:
                # Stalled everywhere: every cycle until the next
                # scheduled event replays this one exactly, so charge
                # them in bulk and jump the clock (bit-identical to the
                # naive loop by construction — see CycleCore.next_event).
                target = min(self._next_event(cycle - 1),
                             watchdog.next_expiry(), max_cycles + 1)
                if target > cycle:
                    count = target - cycle
                    self._charge_idle(cycle, count)
                    self.skipped_cycles += count
                    cycle = target
        try:
            for core in self.cores:
                core.drain_check()
        except SimulationError as error:
            error.attach(machine=self.machine_label, cycles=cycle,
                         total=total, partial=self._partial_stats(cycle),
                         snapshot=self.failure_snapshot(cycle))
            raise
        return self._result(workload, cycle)

    def _failure(self, kind, cycle: int, total: int, trip: str,
                 message: str, detail: str = "") -> SimulationError:
        """A structured failure of *kind*; the tracer records the *trip*
        first so the snapshot's event tail shows it."""
        if self.tracer is not None:
            self.tracer.instant("watchdog", cycle, detail=trip)
        return kind(f"{self.machine_label}: {message}",
                    machine=self.machine_label, cycles=cycle,
                    instructions=self.committed, total=total,
                    detail=detail, partial=self._partial_stats(cycle),
                    snapshot=self.failure_snapshot(cycle))

    # ------------------------------------------------------------------
    # Results and forensics
    # ------------------------------------------------------------------

    def _cpistack(self, cycles: int) -> CPIStack:
        """The machine's CPI stack over *cycles* (not validated)."""
        return CPIStack.merge_cores(
            (CPIStack(machine=core.name, cycles=cycles,
                      instructions=core.stats.committed,
                      width=core.params.commit_width,
                      slots=dict(core.stats.commit_slots))
             for core in self.cores),
            machine=self.machine_label, instructions=self.committed)

    def _result(self, workload: str, cycles: int) -> SimResult:
        extra = self._extra()
        extra["cpistack"] = maybe_validate(self._cpistack(cycles)).as_dict()
        return SimResult(machine=self.machine_label,
                         config=self.config_name, workload=workload,
                         cycles=cycles, instructions=self.committed,
                         extra=extra)

    def _partial_stats(self, cycles: int) -> dict:
        """Statistics accumulated up to a failure point (not validated —
        the ledger is only complete for fully attributed cycles)."""
        extra = self._extra()
        return {
            "cycles": cycles,
            "instructions": self.committed,
            "cpistack": self._cpistack(cycles).as_dict(),
            **{key: extra[key] for key in self._PARTIAL_FIELDS},
        }

    def failure_snapshot(self, cycle: int) -> dict:
        """JSON-able pipeline snapshot for crash forensics."""
        snapshot = {
            "machine": self.machine_label,
            "cycle": cycle,
            **self._snapshot(),
            "last_committed": [uop_brief(u) for u in self.recent_commits],
        }
        if self.tracer is not None:
            snapshot["trace_events"] = self.tracer.tail()
        return snapshot

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def _checkpoint_payload(self, cycle: int) -> bytes:
        """Pickle the machine's dynamic state in one blob (shared object
        identity — cores↔hierarchies, uop graphs, queue entries —
        survives because everything rides in one dict)."""
        detached = [(owner, name, owner.__dict__.pop(name))
                    for owner, name in self._transient()
                    if name in owner.__dict__]
        try:
            state = {name: getattr(self, name)
                     for name in self._SHELL_STATE + self._STATE}
            state["cycle"] = cycle
            return dumps_state(state)
        finally:
            for owner, name, value in detached:
                setattr(owner, name, value)

    def _adopt_state(self, state: dict, measured_trace) -> int:
        """Install an unpickled checkpoint *state* over the measured
        trace; returns the resume cycle."""
        for name in self._SHELL_STATE + self._STATE:
            setattr(self, name, state[name])
        self._adopt(measured_trace)
        return state["cycle"]


class SingleCoreMachine(MachineShell):
    """One out-of-order core running one trace to completion.

    Args:
        params: Core configuration.
        num_clusters / cross_cluster_latency / cluster_issue_width:
            Clustering knobs forwarded to :class:`CycleCore` (used by the
            Core Fusion machine; leave at defaults for a plain core).
        machine_label: Name recorded in the :class:`SimResult`.
        **options: Run-loop options (``max_cycles``,
            ``watchdog_window``, ``skip_ahead``, ``commit_hook``,
            ``tracer``, ``checkpoint_interval``, ``checkpoint_sink``),
            documented on :class:`MachineShell`.
    """

    _STATE = ("hierarchy", "core", "predictor", "fetch")
    _PARTIAL_FIELDS = ("core",)

    def __init__(self, params: CoreParams,
                 num_clusters: int = 1,
                 cross_cluster_latency: int = 0,
                 cluster_issue_width: Optional[int] = None,
                 machine_label: str = "single",
                 **options):
        super().__init__(machine_label, params.name, **options)
        self.params = params
        self._cluster_key = (num_clusters, cross_cluster_latency,
                             cluster_issue_width)
        self.hierarchy = CacheHierarchy(params)
        self.core = CycleCore(
            params, self.hierarchy, name=machine_label,
            num_clusters=num_clusters,
            cross_cluster_latency=cross_cluster_latency,
            cluster_issue_width=cluster_issue_width)
        self.predictor = FrontEndPredictor(params.branch)
        self.fetch: Optional[SelfFetchUnit] = None

    @property
    def cores(self) -> Tuple[CycleCore]:
        return (self.core,)

    def run(self, trace: Sequence[TraceRecord], workload: str = "trace",
            warmup: int = 0,
            resume_from: Optional[MachineCheckpoint] = None) -> SimResult:
        """Simulate *trace* to completion and return the result.

        Args:
            trace: The dynamic instruction stream.  The measured records
                run in place, numbered by their position after the
                warm-up; their ``seq`` fields are not read.
            workload: Name recorded in the result.
            warmup: Number of leading instructions used to functionally
                warm caches and the branch predictor; only the remainder
                is timed (see :mod:`repro.uarch.warmup`).
            resume_from: Optional :class:`MachineCheckpoint` taken by an
                earlier run over the *same* trace/warmup/configuration;
                simulation restarts from the snapshot and the final
                result is bit-identical to a straight-through run.
                Without it, a checkpointing run resumes from its latest
                checkpoint in the sink (see :mod:`repro.ckpt.manager`).

        Raises:
            SimulationLimit: if the run exceeds ``max_cycles``.
            SimulationHang: if the watchdog sees no commit for a whole
                window while the run is incomplete.
            PipelineDrainError: if the run ends with uops in flight.
            CheckpointMismatch / CheckpointCorruption: if *resume_from*
                does not belong to this run or fails to deserialize.
            (All but the checkpoint errors are ``SimulationError``/
            ``RuntimeError`` subclasses and carry partial statistics
            plus a pipeline snapshot.)
        """
        return self._simulate(trace, workload, warmup, resume_from)

    def checkpoint_params_key(self) -> str:
        """Configuration identity for checkpoint compatibility checks."""
        clusters, latency, width = self._cluster_key
        return (f"{self.params.key()}|clusters={clusters}"
                f"|xlat={latency}|cwidth={width}")

    def _warm(self, prefix: Sequence[TraceRecord]) -> None:
        warm_state(prefix, self.hierarchy, self.predictor,
                   line_bytes=self.params.l1i.line_bytes)

    def _start(self, trace: Sequence[TraceRecord]) -> None:
        self.fetch = SelfFetchUnit(self.core, trace, self.predictor,
                                   line_bytes=self.params.l1i.line_bytes)

    def _step(self, cycle: int) -> int:
        core = self.core
        fetch = self.fetch
        retired_uops = core.phase_commit(cycle)
        retired = len(retired_uops)
        if retired:
            self.committed += retired
            self.recent_commits.extend(retired_uops)
            if self.commit_hook is not None:
                for uop in retired_uops:
                    self.commit_hook(uop, cycle)
            if self.tracer is not None:
                self.tracer.commits(retired_uops, cycle)
        completed = core.phase_complete(cycle)
        issued = core.phase_issue(cycle)
        dispatched = core.phase_dispatch(cycle)
        fetched = fetch.phase_fetch(cycle)
        core.attribute_cycle(cycle, retired,
                             frontend_cause=fetch.stall_cause(cycle))
        return retired or completed or issued or dispatched or fetched

    def _next_event(self, now: int) -> int:
        return min(self.core.next_event(now), self.fetch.next_event(now))

    def _charge_idle(self, first: int, count: int) -> None:
        self.core.charge_idle_cycles(
            first, count, frontend_cause=self.fetch.stall_cause(first))
        self.fetch.charge_idle_cycles(count)

    def _lookahead(self) -> int:
        # The fetch cursor runs at most a full ROB and fetch buffer
        # ahead of the commit point, which a cycle advances by up to
        # commit_width before it fetches.
        params = self.core.params
        return (params.rob_entries + self.core._fetch_capacity
                + params.commit_width + params.fetch_width)

    def _transient(self):
        # The trace is reproducible from the workload/seed, dominates
        # the snapshot size, and its fingerprint already rides in the
        # checkpoint metadata.
        return [(self.fetch, "trace")]

    def _adopt(self, trace: Sequence[TraceRecord]) -> None:
        self.fetch.trace = trace
        # Every uop that can still retire is in the ROB or fetch buffer.
        relink(chain(self.core._rob, self.core._fetch_buffer), trace)

    def _extra(self) -> dict:
        return {
            "core": self.core.stats.as_dict(),
            "branch": self.predictor.stats(),
            "caches": self.hierarchy.stats(),
            "fetch": {
                "fetched": self.fetch.fetched,
                "mispredict_stall_cycles": self.fetch.mispredict_stalls,
            },
        }

    def _snapshot(self) -> dict:
        return {"core": self.core.snapshot(), "fetch": self.fetch.snapshot()}


def simulate_single_core(trace: Sequence[TraceRecord], params: CoreParams,
                         workload: str = "trace",
                         warmup: int = 0) -> SimResult:
    """Convenience wrapper: build a fresh machine and run *trace*."""
    return SingleCoreMachine(params).run(trace, workload=workload,
                                         warmup=warmup)
