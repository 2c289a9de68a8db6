"""Dynamic instruction traces: records, serialisation and analysis.

Every timing model in the repository consumes a ``list[TraceRecord]``.
Traces come from the functional interpreter (real programs), the
synthetic workload generators, or a trace file on disk::

    from repro.trace import read_trace, write_trace, summarize

    records = read_trace("bzip2.fgtr")
    print(summarize(records).branch_fraction)
"""

from .analysis import (
    TraceSummary,
    dependence_distances,
    instruction_mix,
    memory_dependence_count,
    summarize,
)
from .io import TraceFormatError, read_trace, write_trace
from .record import TraceRecord, validate_trace

__all__ = [
    "TraceRecord",
    "validate_trace",
    "TraceFormatError",
    "read_trace",
    "write_trace",
    "TraceSummary",
    "dependence_distances",
    "instruction_mix",
    "memory_dependence_count",
    "summarize",
]
