"""On-disk checkpoint files: the ``repro-ckpt-v1`` format.

Layout mirrors the result cache's checksummed tiers: one file per run
key under ``.repro_cache/checkpoints/``, written atomically (temp file
+ ``os.replace``), sha256-checksummed, and *quarantined* — moved to
``.repro_cache/quarantine/`` — rather than trusted when any integrity
check fails.  A quarantined or missing checkpoint simply means the run
starts from the trace head and regenerates the file at the next
interval, exactly like a quarantined result-cache entry.

File format (``repro-ckpt-v1``)::

    {"format": "repro-ckpt-v1", "sha256": "<hex>", "meta": {...}}\\n
    <raw pickle payload bytes>

The sha256 covers the payload bytes only; the header line is
JSON-parseable on its own so tooling can inspect checkpoints without
unpickling anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Optional

from .state import CheckpointCorruption, MachineCheckpoint

CHECKPOINT_FORMAT = "repro-ckpt-v1"
DEFAULT_CHECKPOINT_DIR = Path(".repro_cache") / "checkpoints"

_META_FIELDS = ("machine", "workload", "warmup", "trace_fingerprint",
                "params_key", "cycle", "committed")


def run_key(machine: str, workload: str, warmup: int, params_key: str,
            fingerprint: str) -> str:
    """Stable identity of one (machine, trace, config) run.

    Checkpoint files are named by this key, latest-only: a newer
    checkpoint for the same run overwrites the older one.
    """
    blob = (f"{CHECKPOINT_FORMAT}|{machine}|{workload}|{warmup}"
            f"|{params_key}|{fingerprint}")
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class CheckpointStore:
    """Checksummed checkpoint files with quarantine-on-corruption."""

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory else (
            DEFAULT_CHECKPOINT_DIR)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.ckpt"

    def save(self, key: str, checkpoint: MachineCheckpoint) -> Path:
        """Atomically write *checkpoint* as the latest for *key*.

        A failed write or rename removes its temp file and re-raises.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {
                "format": CHECKPOINT_FORMAT,
                "sha256": hashlib.sha256(checkpoint.payload).hexdigest(),
                "meta": checkpoint.meta(),
            },
            sort_keys=True,
        )
        path = self.path_for(key)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as stream:
                stream.write(header.encode("utf-8"))
                stream.write(b"\n")
                stream.write(checkpoint.payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def load(self, key: str) -> Optional[MachineCheckpoint]:
        """Load the latest checkpoint for *key*.

        Returns ``None`` when absent — or when present but corrupt, in
        which case the file is quarantined first so the caller
        regenerates it on the next interval.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            return self._read(path)
        except CheckpointCorruption as exc:
            self.quarantine(path, exc)
            return None

    def _read(self, path: Path) -> MachineCheckpoint:
        with open(path, "rb") as stream:
            header_line = stream.readline()
            payload = stream.read()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CheckpointCorruption(
                f"unparseable checkpoint header in {path.name}") from exc
        if not isinstance(header, dict) or (
                header.get("format") != CHECKPOINT_FORMAT):
            raise CheckpointCorruption(
                f"{path.name} is not a {CHECKPOINT_FORMAT} file")
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("sha256"):
            raise CheckpointCorruption(
                f"payload checksum mismatch in {path.name}")
        meta = header.get("meta")
        if not isinstance(meta, dict) or any(
                field not in meta for field in _META_FIELDS):
            raise CheckpointCorruption(
                f"incomplete checkpoint metadata in {path.name}")
        return MachineCheckpoint(payload=payload,
                                 **{f: meta[f] for f in _META_FIELDS})

    def quarantine(self, path: Path, error: Exception) -> Optional[Path]:
        """Move a corrupt checkpoint aside (same tier as the result
        cache's quarantine directory) and leave a .reason breadcrumb."""
        quarantine_dir = self.directory.parent / "quarantine"
        try:
            quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = quarantine_dir / f"{path.name}.{int(time.time())}"
            os.replace(path, target)
            reason = target.with_suffix(target.suffix + ".reason")
            reason.write_text(f"{type(error).__name__}: {error}\n",
                              encoding="utf-8")
            return target
        except OSError:
            # Last resort: drop the corrupt file so it cannot be
            # loaded again.
            try:
                path.unlink()
            except OSError:
                pass
            return None
