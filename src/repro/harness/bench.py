"""Perf-regression benchmark harness (``repro bench``).

Simulation throughput is a first-class deliverable: every experiment the
repository can afford scales with how many instructions per wall-clock
second the models simulate.  This harness runs a **pinned workload
matrix** (fixed benchmarks, machines, trace length, warm-up and seed, so
numbers are comparable across commits), reports instructions-per-second
(the headline) and kilo-cycles-per-second with warm-up-rep discard and
multi-rep medians, writes a ``BENCH_<date>.json`` snapshot at the
repository root, and compares against the previous snapshot with a
configurable regression threshold — the trajectory CI ratchets.

Methodology:

* Every ``(machine, benchmark)`` cell runs ``reps + 1`` times on a fresh
  machine each time; the first repetition is discarded (it pays trace
  generation, allocator warm-up and branch-predictor-of-the-interpreter
  effects) and the **median** of the remaining repetitions is reported.
* Every repetition must return the first one's result exactly; a cell
  whose results differ fails (:class:`NondeterministicCell`), so a hot
  loop rewrite that breaks determinism cannot pass as a speed-up.
* Throughput is wall-clock only over ``Machine.run`` — trace generation
  and machine construction are excluded.
* Regressions are judged on instructions per second.  Cycles per
  second would make a faster *simulated* machine (fewer cycles for the
  same work) look like a slower simulator.
* Snapshots embed the schema version and the matrix configuration;
  comparisons refuse to match snapshots whose schema or sizing differs
  (a changed matrix is a new trajectory, not a regression).
"""

from __future__ import annotations

import datetime
import json
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..fgstp.params import FgStpParams
from ..uarch.params import core_config
from ..workloads.generator import generate_trace
from .runners import MACHINES, build_machine

#: Snapshot schema version (bump on incompatible layout or comparison
#: changes).  Version 2 judges regressions on ``ips``; version 1 judged
#: them on ``kcps``.
SCHEMA_VERSION = 2

#: The pinned matrix: benchmarks spanning compute-bound (gcc),
#: memory-latency-bound (mcf) and memory-bandwidth-bound (milc)
#: behaviour, on every machine model.
PINNED_BENCHMARKS = ("gcc", "mcf", "milc")
PINNED_MACHINES = MACHINES
PINNED_CONFIG = "medium"
PINNED_LENGTH = 30_000
PINNED_WARMUP = 10_000
PINNED_SEED = 42

#: Measured repetitions per cell (one extra warm-up rep is always run
#: and discarded).
DEFAULT_REPS = 3

#: Default allowed throughput drop vs. the previous snapshot (fraction).
DEFAULT_THRESHOLD = 0.25

#: Snapshot filename pattern at the repository root.
SNAPSHOT_GLOB = "BENCH_*.json"


class NondeterministicCell(RuntimeError):
    """A cell's repetitions returned different results."""


def run_cell(machine: str, benchmark: str, config: str = PINNED_CONFIG,
             length: int = PINNED_LENGTH, warmup: int = PINNED_WARMUP,
             seed: int = PINNED_SEED, reps: int = DEFAULT_REPS) -> Dict:
    """Benchmark one ``(machine, benchmark)`` cell.

    Returns:
        A JSON-able entry: identity, simulated cycles/instructions,
        per-rep wall times, and median-based kcps / ips.

    Raises:
        NondeterministicCell: naming the cell and the first repetition
            whose ``SimResult.as_dict()`` differs from the first's.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1: {reps}")
    base = core_config(config)
    trace = generate_trace(benchmark, length, seed)
    times: List[float] = []
    first = None
    for rep in range(reps + 1):
        # Plain runs only: a checkpointing repetition would time the
        # pickling, and a later one would resume from its checkpoints.
        model = build_machine(machine, base, FgStpParams(),
                              checkpoint_interval=0)
        start = time.perf_counter()
        result = model.run(trace, workload=benchmark, warmup=warmup)
        elapsed = time.perf_counter() - start
        if rep == 0:  # the discarded warm-up repetition
            first = result.as_dict()
            continue
        if result.as_dict() != first:
            raise NondeterministicCell(
                f"{machine}/{benchmark}: repetition {rep} returned a "
                f"different result than repetition 0")
        times.append(elapsed)
    median = statistics.median(times)
    return {
        "machine": machine,
        "benchmark": benchmark,
        "config": config,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "reps": reps,
        "times_s": [round(t, 6) for t in times],
        "median_s": round(median, 6),
        "kcps": round(result.cycles / median / 1000.0, 3),
        "ips": round(result.instructions / median, 1),
    }


def run_matrix(machines: Sequence[str] = PINNED_MACHINES,
               benchmarks: Sequence[str] = PINNED_BENCHMARKS,
               config: str = PINNED_CONFIG,
               length: int = PINNED_LENGTH, warmup: int = PINNED_WARMUP,
               seed: int = PINNED_SEED, reps: int = DEFAULT_REPS,
               log: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the full matrix and return a snapshot document."""
    entries = []
    for machine in machines:
        for benchmark in benchmarks:
            entry = run_cell(machine, benchmark, config=config,
                             length=length, warmup=warmup, seed=seed,
                             reps=reps)
            entries.append(entry)
            if log is not None:
                log(f"{machine:15s} {benchmark:10s} "
                    f"{entry['ips']:11.0f} instr/s "
                    f"{entry['kcps']:9.1f} kc/s "
                    f"(median of {reps}, {entry['cycles']} cycles)")
    return {
        "schema": SCHEMA_VERSION,
        "created": datetime.datetime.now().isoformat(timespec="seconds"),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "matrix": {
            "machines": list(machines),
            "benchmarks": list(benchmarks),
            "config": config,
            "length": length,
            "warmup": warmup,
            "seed": seed,
            "reps": reps,
        },
        "entries": entries,
    }


def snapshot_path(root: Path, date: Optional[datetime.date] = None) -> Path:
    """``BENCH_<YYYYMMDD>.json`` under *root* for *date* (default today)."""
    date = date or datetime.date.today()
    return Path(root) / f"BENCH_{date.strftime('%Y%m%d')}.json"


def write_snapshot(snapshot: Dict, root: Path,
                   date: Optional[datetime.date] = None) -> Path:
    """Write *snapshot* at *root* and return its path."""
    path = snapshot_path(root, date)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return path


def previous_snapshot(root: Path,
                      exclude: Optional[Path] = None) -> Optional[Path]:
    """Latest snapshot under *root* other than *exclude* (dateless sort
    works because the filename embeds ``YYYYMMDD``)."""
    exclude = Path(exclude).resolve() if exclude is not None else None
    candidates = sorted(
        path for path in Path(root).glob(SNAPSHOT_GLOB)
        if exclude is None or path.resolve() != exclude)
    return candidates[-1] if candidates else None


def load_snapshot(path: Path) -> Dict:
    return json.loads(Path(path).read_text())


def _cell_key(entry: Dict) -> tuple:
    return (entry["machine"], entry["benchmark"], entry["config"])


def _comparable(current: Dict, previous: Dict) -> bool:
    """Same snapshot schema and the same matrix sizing."""
    if current.get("schema") != previous.get("schema"):
        return False
    now, before = current.get("matrix", {}), previous.get("matrix", {})
    return all(now.get(key) == before.get(key)
               for key in ("length", "warmup", "seed", "reps"))


def comparable_cells(current: Dict, previous: Dict) -> int:
    """Cells :func:`compare_snapshots` would actually match.

    Zero means the comparison is vacuous — a different schema or
    sizing, or no overlapping ``(machine, benchmark, config)`` cells —
    and callers should say so rather than report "no regressions".
    """
    if not _comparable(current, previous):
        return 0
    old = {_cell_key(entry): entry for entry in previous.get("entries", ())}
    return sum(1 for entry in current.get("entries", ())
               if old.get(_cell_key(entry), {}).get("ips"))


def compare_snapshots(current: Dict, previous: Dict,
                      threshold: float = DEFAULT_THRESHOLD) -> List[Dict]:
    """Compare matching cells; list regressions beyond *threshold*.

    A cell regresses when its simulated instructions per second dropped
    by more than *threshold* (fractional):
    ``ips < previous_ips * (1 - threshold)``.  Cells present in only one
    snapshot, or snapshots of a different schema or sizing (length /
    warm-up / seed / reps), are skipped — they are different experiments,
    not comparable points on the trajectory.
    """
    if not 0 <= threshold < 1:
        raise ValueError(f"threshold must be in [0, 1): {threshold}")
    if not _comparable(current, previous):
        return []
    old = {_cell_key(entry): entry for entry in previous.get("entries", ())}
    regressions = []
    for entry in current.get("entries", ()):
        before = old.get(_cell_key(entry))
        if before is None or not before.get("ips"):
            continue
        floor = before["ips"] * (1.0 - threshold)
        if entry["ips"] < floor:
            regressions.append({
                "machine": entry["machine"],
                "benchmark": entry["benchmark"],
                "config": entry["config"],
                "ips": entry["ips"],
                "previous_ips": before["ips"],
                "ratio": round(entry["ips"] / before["ips"], 3),
                "threshold": threshold,
            })
    return regressions


def render_snapshot(snapshot: Dict) -> str:
    """Human-readable table of one snapshot's entries."""
    lines = [f"{'machine':15s} {'benchmark':10s} {'instr/s':>12s} "
             f"{'kc/s':>10s} {'cycles':>9s} {'median_s':>9s}"]
    for entry in snapshot.get("entries", ()):
        lines.append(
            f"{entry['machine']:15s} {entry['benchmark']:10s} "
            f"{entry['ips']:12.0f} {entry['kcps']:10.1f} "
            f"{entry['cycles']:9d} {entry['median_s']:9.3f}")
    return "\n".join(lines)
