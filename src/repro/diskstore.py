"""One checksummed disk store for every ``.repro_cache/`` tier.

Results, checkpoints and traces are each one file in one envelope::

    {"format": "<tag>", "meta": {...}, "sha256": "<hex>"}\\n
    <body bytes>

The header is one JSON line, so tooling can read an entry's identity
without its body; the sha256 covers the body bytes only.  :func:`put`
writes an entry and :func:`get` verifies it.  An entry that fails
verification, or that its client cannot parse, is set aside by
:func:`quarantine` (never served, never fatal) and recomputed.  A file
that cannot be opened or read is a miss, as if absent: it is not
provably corrupt, and the recomputed entry replaces it.

Entries, crash dumps and campaign manifests are all written by
:func:`atomic_write`, so a reader never sees a torn file and writers
racing on one entry overwrite it whole.  This module imports only the
standard library, so every layer can use it.
"""

from __future__ import annotations

import hashlib
import itertools
from contextlib import suppress
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

#: Version of the simulated machines' timing, part of every result and
#: checkpoint key: bump it with any change that moves a ``SimResult``,
#: so what older code computed is orphaned, not served.
#: ``tests/integration/test_golden_results.py`` pins the golden
#: fixture's digest per version.  v4: this module's envelope.
MODEL_VERSION = 4

PathLike = Union[str, Path]

_serial = itertools.count()


class CorruptEntry(ValueError):
    """An entry whose header or checksum does not verify."""


def key(*parts: object) -> str:
    """Content-hash file stem of an entry decided by *parts*."""
    blob = "|".join(map(str, parts))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def atomic_write(path: PathLike, data: bytes) -> None:
    """Write *data* to *path* through a temp file in the same directory.

    On any failure the temp file is removed and the error re-raised;
    the previous content of *path*, if any, is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_serial)}.tmp")
    try:
        with open(tmp, "wb") as stream:
            stream.write(data)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def put(path: PathLike, body: bytes, format: str,
        meta: Dict[str, Any]) -> None:
    """Atomically write *body* in the envelope tagged *format*."""
    header = json.dumps({"format": format,
                         "sha256": hashlib.sha256(body).hexdigest(),
                         "meta": meta}, sort_keys=True)
    atomic_write(path, header.encode("utf-8") + b"\n" + body)


def get(path: PathLike, format: str
        ) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """The verified ``(meta, body)`` of the entry at *path*.

    Returns ``None`` when the file is absent or cannot be read.

    Raises:
        CorruptEntry: the header does not parse, carries another format
            tag, or its sha256 does not match the body.
    """
    path = Path(path)
    try:
        with open(path, "rb") as stream:
            line = stream.readline()
            body = stream.read()
    except OSError:
        return None
    try:
        header = json.loads(line)
    except ValueError:
        raise CorruptEntry(f"unparseable header in {path.name}") from None
    if not isinstance(header, dict) or header.get("format") != format:
        raise CorruptEntry(f"{path.name} is not a {format} entry")
    if header.get("sha256") != hashlib.sha256(body).hexdigest():
        raise CorruptEntry(f"body checksum mismatch in {path.name}")
    meta = header.get("meta")
    if not isinstance(meta, dict):
        raise CorruptEntry(f"no meta object in {path.name}")
    return meta, body


def quarantine(path: PathLike, reason: Exception) -> None:
    """Set a bad entry aside so it is kept but never served again.

    The entry moves, under its own name, into the ``quarantine/``
    directory next to its tier, with ``<name>.reason`` beside it.  An
    entry that cannot be moved is deleted instead.
    """
    path = Path(path)
    target = path.parent.parent / "quarantine" / path.name
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, target)
        atomic_write(target.with_name(f"{path.name}.reason"),
                     f"{type(reason).__name__}: {reason}\n".encode("utf-8"))
    except OSError:
        with suppress(OSError):
            path.unlink()
