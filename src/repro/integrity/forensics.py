"""Crash forensics: replayable crash-dump artifacts and their renderer.

When a run dies with a :class:`~repro.integrity.errors.SimulationError`
(a validation run included), the failure's payload — partial
statistics, pipeline snapshot, replay recipe — is serialised to a JSON
crash dump under ``<cache_dir>/crashes/`` (``.repro_cache/crashes/`` by
default).  The replay recipe is the failed run's job
(:meth:`repro.harness.parallel.SweepJob.as_dict`) plus its writer's
extras (retry history, battery run name, checkpoint anchor).  ``repro
forensics`` renders a dump human-readably; ``repro minimize`` rebuilds
the job and replays it while shrinking the trace.

Dump files are written atomically (temp + rename) and named
``crash-<machine>-<workload>-<utc timestamp>-<pid>-<n>.json`` so
concurrent sweep workers never collide.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..diskstore import atomic_write
from .errors import SimulationError

#: Self-describing format tag checked on load.
DUMP_FORMAT = "repro-crash-dump-v1"

#: Default dump directory relative to the cache root.
DEFAULT_CRASH_DIR = Path(".repro_cache") / "crashes"

_counter = itertools.count()


class CrashDumpError(Exception):
    """A crash-dump file is missing, unreadable, or not a dump."""


def uop_brief(uop: Any) -> Dict[str, Any]:
    """Compact JSON-able view of one in-flight uop."""
    from ..uarch.pipeline.uop import STATE_NAMES

    record = uop.record
    return {
        "uid": uop.uid,
        "seq": uop.seq,
        "pc": record.pc,
        "op": record.op_class.name,
        "state": STATE_NAMES.get(uop.state, "?"),
        "core": uop.core_id,
        "cluster": uop.cluster,
        "pending": uop.pending,
        "operand_ready": uop.operand_ready,
        "issue_cycle": uop.issue_cycle,
        "complete_cycle": uop.complete_cycle,
        "extra_deps": [{"label": tag.label, "ready": tag.ready_cycle}
                       for tag in uop.extra_deps],
    }


# ----------------------------------------------------------------------
# Writing / loading
# ----------------------------------------------------------------------

def write_crash_dump(error: SimulationError,
                     directory: Union[str, Path, None] = None,
                     context: Optional[Dict[str, Any]] = None,
                     workload: str = "") -> Path:
    """Serialise *error* to a crash-dump file; returns its path.

    Args:
        error: The failure to dump (its full payload is preserved).
        directory: Dump directory (default
            ``.repro_cache/crashes/`` relative to the working dir).
        context: Replay recipe merged over the error's own.
        workload: Workload name for the filename (default: the
            context's kernel or benchmark).
    """
    directory = Path(directory) if directory else DEFAULT_CRASH_DIR
    payload = error.as_dict()
    payload["format"] = DUMP_FORMAT
    if context:
        merged = dict(payload.get("context") or {})
        merged.update(context)
        payload["context"] = merged
    payload["written_unix"] = time.time()
    recipe = payload.get("context") or {}
    workload = (workload or recipe.get("kernel") or recipe.get("benchmark")
                or "run")
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = (f"crash-{error.machine or 'machine'}-{workload}-{stamp}"
            f"-{os.getpid()}-{next(_counter)}.json")
    path = directory / name
    text = json.dumps(payload, sort_keys=True, indent=1, default=str)
    atomic_write(path, text.encode("utf-8"))
    return path


def load_crash_dump(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and sanity-check one crash dump.

    Raises:
        CrashDumpError: when the file is missing, unparsable, or does
            not carry the crash-dump format tag.
    """
    path = Path(path)
    try:
        with path.open() as stream:
            payload = json.load(stream)
    except OSError as exc:
        raise CrashDumpError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CrashDumpError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) \
            or payload.get("format") != DUMP_FORMAT:
        raise CrashDumpError(f"{path} is not a {DUMP_FORMAT} file")
    return payload


def latest_crash_dump(directory: Union[str, Path, None] = None
                      ) -> Optional[Path]:
    """The most recently modified dump in *directory*, or ``None``."""
    directory = Path(directory) if directory else DEFAULT_CRASH_DIR
    if not directory.is_dir():
        return None
    dumps = sorted(directory.glob("crash-*.json"),
                   key=lambda p: p.stat().st_mtime)
    return dumps[-1] if dumps else None


# ----------------------------------------------------------------------
# Rendering (the `repro forensics` view)
# ----------------------------------------------------------------------

def _render_mapping(mapping: Dict[str, Any], indent: str,
                    lines: List[str]) -> None:
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            _render_mapping(value, indent + "  ", lines)
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: [{len(value)} item(s)]")
            for item in value:
                if isinstance(item, dict):
                    compact = " ".join(f"{k}={item[k]}"
                                       for k in sorted(item))
                    lines.append(f"{indent}  - {compact}")
                else:
                    lines.append(f"{indent}  - {item}")
        else:
            lines.append(f"{indent}{key}: {value}")


def _render_recipe(recipe: Dict[str, Any], lines: List[str]) -> None:
    """Render a replay recipe with its machine as differences: ``core``
    as its config name and the fields that differ from that config,
    ``fgstp`` as the fields that differ from the defaults (what the
    job's name lists).  A recipe whose job does not rebuild (a dump
    written before dumps stored jobs has no ``core``) renders whole."""
    from ..harness.parallel import SweepJob

    try:
        core, fgstp = SweepJob.from_dict(recipe).machine_differences()
    except (KeyError, TypeError, ValueError):
        _render_mapping(recipe, "  ", lines)
        return
    for key in sorted(recipe):
        if key == "core":
            lines.append(f"  core: {recipe['core'].get('name')}")
            lines.extend(f"    {change}" for change in core)
        elif key == "fgstp" and recipe["fgstp"] is not None:
            lines.append("  fgstp:" if fgstp else "  fgstp: defaults")
            lines.extend(f"    {change}" for change in fgstp)
        else:
            _render_mapping({key: recipe[key]}, "  ", lines)


#: Columns of the crash-dump mini-timeline.
_TIMELINE_WIDTH = 48

#: Stage marker characters in pipeline order.
_STAGE_MARKS = (("fetch", "F"), ("dispatch", "D"), ("issue", "I"),
                ("complete", "C"), ("commit", "R"))


def render_trace_events(events: List[Dict[str, Any]],
                        width: int = _TIMELINE_WIDTH) -> List[str]:
    """Mini-timeline lines for a crash dump's embedded tracer tail.

    Lifecycle events render as one row each (``F``etch, ``D``ispatch,
    ``I``ssue, ``C``omplete, ``R``etire markers on a shared cycle
    axis); instants render as one annotated line per event.
    """
    lines: List[str] = []
    uops = [event for event in events
            if event.get("kind") == "uop" and event.get("stages")]
    if uops:
        starts = []
        for event in uops:
            valid = [c for c in event["stages"].values() if c >= 0]
            starts.append(min(valid) if valid else event["cycle"])
        origin = min(starts)
        span = max(event["cycle"] for event in uops) - origin + 1
        scale = max(1, -(-span // width))
        columns = -(-span // scale)
        lines.append(f"  cycle axis: {origin}..{origin + span - 1} "
                     f"({scale} cycle(s)/column)")
        for event in uops:
            row = ["."] * columns
            for stage, mark in _STAGE_MARKS:
                when = event["stages"].get(stage, -1)
                if when is not None and when >= 0:
                    row[(when - origin) // scale] = mark
            label = (f"seq={event.get('seq', '?'):<6} "
                     f"c{event.get('core', '?')} "
                     f"{event.get('op', '?'):<6}")
            replica = " (replica)" if event.get("replica") else ""
            lines.append(f"  {label} |{''.join(row)}|{replica}")
    for event in events:
        if event.get("kind") == "uop":
            continue
        parts = [f"  [cycle {event.get('cycle', '?')}]",
                 str(event.get("kind", "?"))]
        if event.get("seq", -1) >= 0:
            parts.append(f"seq={event['seq']}")
        if event.get("core", -1) >= 0:
            parts.append(f"core={event['core']}")
        if event.get("detail"):
            parts.append(str(event["detail"]))
        lines.append(" ".join(parts))
    return lines


def render_crash_dump(dump: Dict[str, Any]) -> str:
    """Human-readable rendering of one loaded crash dump."""
    lines: List[str] = []
    machine = dump.get("machine", "?")
    lines.append(f"== crash dump: {dump.get('failure_class', '?')} "
                 f"on {machine} ==")
    lines.append(f"message: {dump.get('message', '')}")
    total = dump.get("total")
    progress = f"{dump.get('instructions', 0)}"
    if total is not None:
        progress += f"/{total}"
    lines.append(f"progress: {progress} instructions in "
                 f"{dump.get('cycles', 0)} cycles")
    context = dump.get("context") or {}
    if context:
        lines.append("")
        lines.append("replay recipe:")
        _render_recipe(context, lines)
    partial = dump.get("partial") or {}
    if partial:
        lines.append("")
        lines.append("partial statistics:")
        _render_mapping(partial, "  ", lines)
    snapshot = dump.get("snapshot") or {}
    trace_events = None
    if snapshot:
        snapshot = dict(snapshot)
        trace_events = snapshot.pop("trace_events", None)
        lines.append("")
        lines.append("pipeline snapshot:")
        _render_mapping(snapshot, "  ", lines)
    if trace_events:
        lines.append("")
        lines.append(f"recent pipeline events ({len(trace_events)}):")
        lines.extend(render_trace_events(trace_events))
    return "\n".join(lines)
