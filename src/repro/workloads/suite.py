"""Benchmark-suite registry: names, trace caching and suite iteration.

Experiments run on the full suite; regenerating a trace per experiment is
wasted work, so :class:`TraceCache` memoises generated traces within a
process (keyed by name/length/seed) and :class:`DiskTraceCache` extends
the memo with a content-hash-keyed on-disk store so worker *processes*
(see :mod:`repro.harness.parallel`) share generated traces instead of
regenerating them.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from .. import diskstore
from ..trace.io import TraceFormatError, read_trace, write_trace
from ..trace.record import TraceRecord
from .generator import generate_trace
from .profiles import ALL_NAMES, SPEC_FP_NAMES, SPEC_INT_NAMES, get_profile

#: Bump when trace *content* for a given (name, length, seed) can change
#: (generator algorithm or profile calibration changes) so stale disk
#: cache entries are never reused.  v2: entries moved into the
#: :mod:`repro.diskstore` envelope.
TRACE_CACHE_VERSION = 2

#: Envelope tag of a cached trace (its :mod:`repro.trace.io` bytes are
#: the body).
TRACE_FORMAT = "repro-trace-v1"


def trace_key(name: str, length: int, seed: int) -> str:
    """Stable content-hash key for one generated trace.

    The key covers the generation inputs *and* the workload profile's
    calibration (via its dataclass repr), so editing a profile invalidates
    its cached traces automatically.  Unknown names still key cleanly —
    the sweep engine hashes jobs before running them, and a bad
    benchmark must surface as a per-job failure, not a key error.
    """
    try:
        profile = repr(get_profile(name))
    except KeyError:
        profile = "<unknown>"
    return diskstore.key(TRACE_CACHE_VERSION, name, length, seed, profile)


class TraceCache:
    """Process-wide memo of generated traces."""

    def __init__(self):
        self._traces: Dict[Tuple[str, int, int], List[TraceRecord]] = {}

    def get(self, name: str, length: int, seed: int = 1) -> List[TraceRecord]:
        """The (cached) trace for ``(name, length, seed)``."""
        key = (name, length, seed)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._load(name, length, seed)
            self._traces[key] = trace
        return trace

    def _load(self, name: str, length: int, seed: int) -> List[TraceRecord]:
        return generate_trace(name, length, seed)

    def clear(self) -> None:
        self._traces.clear()


class DiskTraceCache(TraceCache):
    """Trace cache with a shared on-disk tier under *cache_dir*.

    Layout: ``<cache_dir>/traces/<content-hash>.trace``, a
    :mod:`repro.diskstore` entry whose body is the binary format of
    :mod:`repro.trace.io`.  Writes are atomic, so concurrent workers
    racing to fill the same entry can never expose a torn file; the
    losers simply overwrite with identical bytes.  An entry that fails
    its checksum, does not parse or has the wrong length is
    quarantined (for inspection: a recurring corruption points at a
    storage or writer bug, not bad luck), regenerated and rewritten
    rather than propagated.

    Attributes:
        hits / misses: In-memory tier statistics.
        disk_hits / disk_misses: On-disk tier statistics (misses ran the
            generator and persisted the result).
        quarantined: Corrupt entries moved aside and regenerated.
    """

    def __init__(self, cache_dir: Union[str, Path]):
        super().__init__()
        self.cache_dir = Path(cache_dir) / "traces"
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.quarantined = 0

    def path_for(self, name: str, length: int, seed: int = 1) -> Path:
        """On-disk location for one trace (exists only after a get)."""
        return self.cache_dir / f"{trace_key(name, length, seed)}.trace"

    def get(self, name: str, length: int, seed: int = 1) -> List[TraceRecord]:
        if (name, length, seed) in self._traces:
            self.hits += 1
        else:
            self.misses += 1
        return super().get(name, length, seed)

    def _load(self, name: str, length: int, seed: int) -> List[TraceRecord]:
        path = self.path_for(name, length, seed)
        try:
            entry = diskstore.get(path, TRACE_FORMAT)
            if entry is not None:
                trace = read_trace(io.BytesIO(entry[1]))
                if len(trace) != length:
                    raise TraceFormatError(
                        f"length {len(trace)} != {length}")
                self.disk_hits += 1
                return trace
        except (TraceFormatError, ValueError) as exc:
            self.quarantined += 1
            diskstore.quarantine(path, exc)
        self.disk_misses += 1
        trace = generate_trace(name, length, seed)
        body = io.BytesIO()
        write_trace(trace, body)
        diskstore.put(path, body.getvalue(), TRACE_FORMAT,
                      {"name": name, "length": length, "seed": seed})
        return trace


#: Default shared cache used by the harness and benchmarks.
DEFAULT_CACHE = TraceCache()


def suite_names(suite: str = "all") -> List[str]:
    """Benchmark names for ``"int"``, ``"fp"`` or ``"all"``.

    Raises:
        ValueError: on an unknown suite selector.
    """
    if suite == "int":
        return list(SPEC_INT_NAMES)
    if suite == "fp":
        return list(SPEC_FP_NAMES)
    if suite == "all":
        return list(ALL_NAMES)
    raise ValueError(f"unknown suite {suite!r}; use 'int', 'fp' or 'all'")


def iter_suite(length: int, suite: str = "all", seed: int = 1,
               cache: TraceCache = DEFAULT_CACHE
               ) -> Iterator[Tuple[str, Sequence[TraceRecord]]]:
    """Yield ``(name, trace)`` for every benchmark in *suite*."""
    for name in suite_names(suite):
        yield name, cache.get(name, length, seed)


def workload_suite_of(name: str) -> str:
    """``"int"`` or ``"fp"`` for benchmark *name*."""
    return get_profile(name).suite
