"""The durable record of a campaign: an append-only JSONL log.

Campaigns run for a long time and die for boring reasons (ssh drop,
OOM killer, ctrl-C).  Rather than checkpointing state, a campaign
streams each finished task to its record, one line per task, written,
flushed and fsync'd before the task settles.  A re-run replays the
record: a task already in it settles from its recorded value without
running, and the rest run.  Layout::

    {"kind":"header","version":2,"campaign":...,"fingerprint":...,
     "config":...,"host":{...}}
    {"kind":"task","name":...,"key":...,"seed":...,"attempts":1,
     "wall_time_s":0.8,"value":...}
    ...

Rules:

* the header's ``fingerprint`` names what produced the values (the
  source tree for ``run_all``, the config for a fleet campaign); a
  record of another campaign, fingerprint or format raises
  :class:`ManifestMismatch` instead of mixing results;
* a task line's ``key`` is :func:`task_key`, so a task replays only a
  value that the same function, parameters and seed produced;
* failed tasks are never recorded, so a re-run retries them;
* a kill mid-write leaves at most one torn tail line.  Reading drops
  it in memory only; the writer truncates it before its first append,
  so a reader beside a live writer never cuts the writer's line;
* a malformed line anywhere else is corruption and raises
  :class:`ManifestMismatch`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.runner.task import Task, TaskResult, task_signature

MANIFEST_VERSION = 2


class ManifestMismatch(RuntimeError):
    """The record on disk is corrupt or belongs to another campaign."""


def _as_dict(obj: Any) -> Any:
    to_dict = getattr(obj, "to_dict", None)
    if to_dict is None:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return to_dict()


def canonical_json(obj: Any) -> str:
    """The one JSON rendering used for records, fingerprints and digests.

    An object with a ``to_dict`` method (a
    :class:`~repro.experiments.table.Table`) is written as that dict.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_as_dict)


def host_metadata() -> Dict[str, Any]:
    return {
        "hostname": platform.node(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
    }


def task_key(task: Task) -> str:
    """sha256 of the task's signature: what it runs, with what, seeded how."""
    return hashlib.sha256(
        canonical_json(task_signature(task)).encode()).hexdigest()


class Manifest:
    """Reader and writer of one campaign's record."""

    def __init__(self, path: "str | os.PathLike[str]"):
        self.path = Path(path)
        self._fh = None

    def _parse(self) -> Tuple[Optional[Dict[str, Any]],
                              Dict[str, Dict[str, Any]], int]:
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return None, {}, 0
        # A whole record ends with "\n"; bytes after the last one are a
        # torn tail.
        end = raw.rfind(b"\n") + 1
        header: Optional[Dict[str, Any]] = None
        tasks: Dict[str, Dict[str, Any]] = {}
        for lineno, line in enumerate(raw[:end].splitlines(), start=1):
            try:
                record = json.loads(line)
                kind = record["kind"]
                if kind == "header" and header is None:
                    header = record
                elif kind == "task" and header is not None:
                    tasks[record["key"]] = record
                else:
                    raise ValueError(f"unexpected {kind!r} line")
            except (ValueError, KeyError, TypeError) as exc:
                raise ManifestMismatch(
                    f"{self.path}:{lineno}: corrupt record line: {exc}"
                ) from None
        return header, tasks, end

    def load(self) -> Tuple[Optional[Dict[str, Any]],
                            Dict[str, Dict[str, Any]]]:
        """Read the record: ``(header, {key: task line})``.

        A missing file reads as ``(None, {})``.  Never writes.
        """
        header, tasks, _ = self._parse()
        return header, tasks

    def open(self, campaign: str, fingerprint: str,
             config: Any = None) -> Dict[str, Dict[str, Any]]:
        """Adopt the record for *campaign*, or start it with a header.

        Returns the recorded task lines by key.  A record of another
        campaign, fingerprint or format raises :class:`ManifestMismatch`.
        """
        header, tasks, end = self._parse()
        if header is not None:
            theirs = (header.get("version"), header.get("campaign"),
                      header.get("fingerprint"))
            if theirs != (MANIFEST_VERSION, campaign, fingerprint):
                raise ManifestMismatch(
                    f"{self.path}: record of (version, campaign, "
                    f"fingerprint) {theirs!r}, not "
                    f"{(MANIFEST_VERSION, campaign, fingerprint)!r}; use a "
                    "fresh output directory or the original config")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.truncate(end)
        if header is None:
            self._write({"kind": "header", "version": MANIFEST_VERSION,
                         "campaign": campaign, "fingerprint": fingerprint,
                         "config": config, "host": host_metadata()})
        return tasks

    def _write(self, record: Dict[str, Any]) -> str:
        line = canonical_json(record)
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return line

    def append(self, key: str, result: TaskResult) -> Any:
        """Durably record one finished task; return its value as recorded."""
        line = self._write({
            "kind": "task", "name": result.name, "key": key,
            "seed": result.seed, "attempts": result.attempts,
            "wall_time_s": round(result.wall_time_s, 4),
            "value": result.value})
        return json.loads(line)["value"]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Manifest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
