"""Resumable sweep campaigns: a write-ahead journal around the engine.

A long sweep that dies at job 900 of 1000 should cost 100 jobs to
finish, not 1000.  A *campaign* makes one ``repro sweep`` invocation
durable:

* ``manifest.json`` — the full sweep recipe (matrix + engine knobs),
  written before the first job runs, so ``repro sweep --resume <id>``
  can rebuild the exact job list with no other arguments;
* ``journal.jsonl`` — an append-only, advisory-locked event log
  (``campaign-start`` / ``job-done`` / ``job-failed`` / ``job-retry`` /
  ``campaign-interrupted`` / ``campaign-complete``) recording how far
  each attempt got and how it ended;
* ``results.jsonl`` — a :class:`~repro.stats.store.ResultStore` written
  *fresh, in job order, only on completion*.  Byte-identity is the
  invariant: an interrupted-then-resumed campaign produces exactly the
  same results file as an uninterrupted one, however many times it was
  interrupted.

Completed work is never redone on resume because the engine's on-disk
result cache (same ``cache_dir``) already holds every finished job;
resume is therefore "re-run the recipe" — cache hits sail through,
only the unfinished tail executes.

Everything lives under ``<cache_dir>/campaigns/<id>/`` next to the
other cache tiers (results / traces / crashes / checkpoints).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..diskstore import atomic_write
from ..stats.store import ResultStore, _exclusive

#: On-disk format tag of ``manifest.json``; bump on breaking change.
CAMPAIGN_FORMAT = "repro-campaign-v1"


class CampaignError(RuntimeError):
    """Missing / malformed / colliding campaign state (a usage error:
    the CLI maps it to exit code 2)."""


def campaigns_root(cache_dir: Union[str, Path]) -> Path:
    return Path(cache_dir) / "campaigns"


_auto_counter = itertools.count(1)


def auto_campaign_id() -> str:
    """Collision-resistant default id: UTC stamp + pid + serial (two
    sweeps in the same process and second must not collide)."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"sweep-{stamp}-{os.getpid()}-{next(_auto_counter)}"


@dataclass
class Campaign:
    """One durable sweep: its directory and parsed manifest."""

    path: Path
    manifest: Dict[str, Any]

    # -- construction --------------------------------------------------

    @classmethod
    def create(cls, campaign_id: str, recipe: Dict[str, Any],
               cache_dir: Union[str, Path]) -> "Campaign":
        """Start a new campaign; the manifest lands before any job runs.

        Raises:
            CampaignError: when the id is already taken (an existing
                campaign must be resumed, not silently overwritten).
        """
        path = campaigns_root(cache_dir) / campaign_id
        if (path / "manifest.json").exists():
            raise CampaignError(
                f"campaign {campaign_id!r} already exists at {path}; "
                f"resume it with --resume, or pick another --campaign id")
        manifest = {
            "format": CAMPAIGN_FORMAT,
            "id": campaign_id,
            "created_unix": time.time(),
            "recipe": dict(recipe),
        }
        text = json.dumps(manifest, indent=1, sort_keys=True)
        atomic_write(path / "manifest.json", text.encode("utf-8"))
        return cls(path=path, manifest=manifest)

    @classmethod
    def load(cls, campaign_id: str,
             cache_dir: Union[str, Path]) -> "Campaign":
        """Open an existing campaign for resumption.

        Raises:
            CampaignError: unknown id, unreadable or foreign manifest.
        """
        path = campaigns_root(cache_dir) / campaign_id
        manifest_path = path / "manifest.json"
        if not manifest_path.exists():
            known = cls.known_ids(cache_dir)
            hint = f"; known: {', '.join(known)}" if known else ""
            raise CampaignError(
                f"no campaign {campaign_id!r} under "
                f"{campaigns_root(cache_dir)}{hint}")
        try:
            with manifest_path.open() as stream:
                manifest = json.load(stream)
        except (OSError, json.JSONDecodeError) as exc:
            raise CampaignError(
                f"unreadable campaign manifest {manifest_path}: "
                f"{exc}") from exc
        if not isinstance(manifest, dict) \
                or manifest.get("format") != CAMPAIGN_FORMAT:
            raise CampaignError(
                f"{manifest_path} is not a {CAMPAIGN_FORMAT} manifest")
        return cls(path=path, manifest=manifest)

    @classmethod
    def known_ids(cls, cache_dir: Union[str, Path]) -> List[str]:
        root = campaigns_root(cache_dir)
        if not root.is_dir():
            return []
        return sorted(entry.name for entry in root.iterdir()
                      if (entry / "manifest.json").exists())

    # -- accessors -----------------------------------------------------

    @property
    def id(self) -> str:
        return str(self.manifest.get("id", self.path.name))

    @property
    def recipe(self) -> Dict[str, Any]:
        recipe = self.manifest.get("recipe")
        if not isinstance(recipe, dict):
            raise CampaignError(
                f"campaign {self.id!r} has no usable recipe")
        return recipe

    @property
    def journal_path(self) -> Path:
        return self.path / "journal.jsonl"

    @property
    def results_path(self) -> Path:
        return self.path / "results.jsonl"

    # -- journal -------------------------------------------------------

    def log(self, event: str, **fields: Any) -> None:
        """Append one journal event (advisory-locked, one line each).

        Journalling is write-ahead bookkeeping, never the sweep's
        critical path: an unwritable journal is swallowed (the engine's
        result cache still guarantees resumability).
        """
        record = {"event": event, "t": time.time()}
        record.update(fields)
        try:
            with self.journal_path.open("a") as stream:
                with _exclusive(stream):
                    stream.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass

    def journal_events(self) -> List[Dict[str, Any]]:
        """Every parseable journal event, in append order.

        A torn final line (the writer died mid-append) is skipped, not
        fatal — exactly the crash the journal exists to survive.
        """
        events: List[Dict[str, Any]] = []
        if not self.journal_path.exists():
            return events
        try:
            with self.journal_path.open() as stream:
                for line in stream:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(record, dict):
                        events.append(record)
        except OSError:
            pass
        return events

    def attempts(self) -> int:
        """How many times this campaign has been started so far."""
        return sum(1 for event in self.journal_events()
                   if event.get("event") == "campaign-start")

    # -- results -------------------------------------------------------

    def write_results(self, results, jobs,
                      tags: Optional[Dict[str, Any]] = None) -> int:
        """Write ``results.jsonl`` fresh, in job order; returns count.

        Called only when the sweep *completed*.  Rewriting from scratch
        (rather than appending per attempt) is what makes the file
        byte-identical whether the campaign ran straight through or was
        interrupted and resumed five times: content and order depend
        only on the recipe, never on the interruption history.
        """
        final_tags = {"source": "sweep", "campaign": self.id}
        final_tags.update(tags or {})
        try:
            self.results_path.unlink()
        except OSError:
            pass
        store = ResultStore(self.results_path)
        ordered = [result for job, result in zip(jobs, results)
                   if result is not None]
        return store.append_many(ordered, tags=final_tags)
