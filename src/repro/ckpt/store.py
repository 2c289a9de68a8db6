"""On-disk checkpoint files: the ``repro-ckpt-v1`` format.

One file per run key under ``.repro_cache/checkpoints/``, written and
verified by :mod:`repro.diskstore` like every other cache tier::

    {"format": "repro-ckpt-v1", "meta": {...}, "sha256": "<hex>"}\\n
    <raw pickle payload bytes>

The header line is JSON-parseable on its own, so tooling can inspect
checkpoints without unpickling anything.  A checkpoint that fails its
checksum or lacks identity metadata is quarantined, and the run starts
from the trace head and regenerates the file at the next interval.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .. import diskstore
from .state import CheckpointCorruption, MachineCheckpoint

CHECKPOINT_FORMAT = "repro-ckpt-v1"
DEFAULT_CHECKPOINT_DIR = Path(".repro_cache") / "checkpoints"

_META_FIELDS = ("machine", "workload", "warmup", "trace_fingerprint",
                "params_key", "cycle", "committed")


def run_key(machine: str, workload: str, warmup: int, params_key: str,
            fingerprint: str) -> str:
    """Stable identity of one (machine, trace, config) run under the
    current :data:`~repro.diskstore.MODEL_VERSION`.

    Checkpoint files are named by this key, latest-only: a newer
    checkpoint for the same run overwrites the older one.
    """
    return diskstore.key(CHECKPOINT_FORMAT, diskstore.MODEL_VERSION, machine,
                         workload, warmup, params_key, fingerprint)


class CheckpointStore:
    """Checksummed checkpoint files with quarantine-on-corruption."""

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory else (
            DEFAULT_CHECKPOINT_DIR)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.ckpt"

    def save(self, key: str, checkpoint: MachineCheckpoint) -> Path:
        """Atomically write *checkpoint* as the latest for *key*."""
        path = self.path_for(key)
        diskstore.put(path, checkpoint.payload, CHECKPOINT_FORMAT,
                      checkpoint.meta())
        return path

    def load(self, key: str) -> Optional[MachineCheckpoint]:
        """Load the latest checkpoint for *key*.

        Returns ``None`` when absent or unreadable, or when present but
        corrupt, in which case the file is quarantined first so the
        caller regenerates it on the next interval.
        """
        path = self.path_for(key)
        try:
            entry = diskstore.get(path, CHECKPOINT_FORMAT)
            if entry is None:
                return None
            meta, payload = entry
            if any(field not in meta for field in _META_FIELDS):
                raise CheckpointCorruption(
                    f"incomplete checkpoint metadata in {path.name}")
        except (diskstore.CorruptEntry, CheckpointCorruption) as exc:
            diskstore.quarantine(path, exc)
            return None
        return MachineCheckpoint(payload=payload,
                                 **{f: meta[f] for f in _META_FIELDS})
