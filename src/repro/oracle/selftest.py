"""Oracle self-test: prove each seeded bug class is detected.

An oracle that never fires is indistinguishable from one that works.
This module injects each :data:`~repro.oracle.mutate.MUTATION_KINDS`
mutation into an otherwise-correct machine's commit stream and checks
that the oracle (a) fires, and (b) classifies the divergence as
expected — wrong destination register is a ``dataflow`` divergence, a
dropped store an ``order`` one, and so on.  ``repro oracle --selftest``
runs it from the CLI; a unit test pins it in the suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from ..trace.record import TraceRecord
from .attach import run_checked
from .mutate import MUTATION_KINDS, make_mutator
from .oracle import OracleDivergence


@dataclass
class MutationOutcome:
    """Result of one injected mutation.

    Attributes:
        kind: Mutation kind injected.
        index: Stream index it was injected at.
        expected_detail: Divergence class the oracle must report.
        detected: Whether the oracle raised at all.
        detail: Divergence class actually reported ("" if none).
        message: First-divergence message (or why injection failed).
    """

    kind: str
    index: int
    expected_detail: str
    detected: bool
    detail: str
    message: str

    @property
    def passed(self) -> bool:
        return self.detected and self.detail == self.expected_detail


def _pick_index(trace: Sequence[TraceRecord], kind: str,
                start: int = 32) -> Optional[int]:
    """First stream index past *start* where *kind* is injectable."""

    def suitable(record: TraceRecord) -> bool:
        if kind == "wrong-dest":
            return record.dst is not None
        if kind == "dropped-commit":
            return record.is_store  # the classic silent-retire bug
        if kind == "stale-value":
            return record.is_memory
        if kind == "wrong-branch-target":
            return record.taken and record.target is not None
        if kind in ("reordered-commit", "duplicate-commit"):
            return record.seq + 1 < len(trace)
        return True

    for record in trace[start:]:
        if suitable(record):
            return record.seq
    for record in trace:
        if suitable(record):
            return record.seq
    return None


def run_selftest(base=None, machine: str = "single",
                 benchmark: str = "gcc", length: int = 2000,
                 seed: int = 11) -> List[MutationOutcome]:
    """Inject every mutation kind; return one outcome per kind.

    Raises:
        OracleDivergence: if the *clean* baseline run diverges — the
            self-test requires a machine the oracle already trusts.
    """
    from ..harness.config import ExperimentConfig
    from ..harness.parallel import execute_job, make_job
    from ..harness.runners import new_machine
    from ..uarch.params import core_config
    from ..workloads.generator import generate_trace

    if base is None:
        base = core_config("small")
    trace = generate_trace(benchmark, length, seed)

    # Baseline: the unmutated stream must pass, or mutation detection
    # proves nothing.
    execute_job(make_job(machine, benchmark, base,
                         ExperimentConfig(length, 0, seed), oracle=True),
                trace)

    outcomes: List[MutationOutcome] = []
    for kind in sorted(MUTATION_KINDS):
        expected = MUTATION_KINDS[kind]
        index = _pick_index(trace, kind)
        if index is None:
            outcomes.append(MutationOutcome(
                kind, -1, expected, False, "",
                f"no injectable site for {kind} in {benchmark}/{length}"))
            continue
        mutator = make_mutator(kind, index)
        try:
            run_checked(partial(new_machine, machine, base), trace, machine,
                        benchmark, mutator=mutator)
        except OracleDivergence as divergence:
            outcomes.append(MutationOutcome(
                kind, index, expected, True, divergence.detail,
                str(divergence)))
        else:
            outcomes.append(MutationOutcome(
                kind, index, expected, False, "",
                f"oracle missed {kind} injected at seq {index}"))
    return outcomes


def format_outcomes(outcomes: Sequence[MutationOutcome]) -> str:
    """Human-readable self-test report for the CLI."""
    lines = []
    for outcome in outcomes:
        status = "detected" if outcome.passed else "MISSED"
        lines.append(
            f"  {outcome.kind:<22} @seq {outcome.index:<6} "
            f"[{outcome.expected_detail}] {status}")
        if outcome.passed:
            first_line = outcome.message.splitlines()[0]
            lines.append(f"      {first_line}")
        else:
            lines.append(f"      {outcome.message}")
    passed = sum(1 for o in outcomes if o.passed)
    lines.append(f"  {passed}/{len(outcomes)} mutation classes detected")
    return "\n".join(lines)
