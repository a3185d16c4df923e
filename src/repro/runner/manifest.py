"""Structured JSON run manifests.

A manifest is the campaign's flight recorder: one document per run,
written next to the output tables, listing per-task status, wall time,
cache behavior, attempts, and seed plus enough host metadata to
reproduce the run.  Schema (version 1)::

    {
      "schema_version": 1,
      "campaign": "run_all",
      "host": {"hostname": ..., "platform": ..., "python": ..., "cpus": N},
      "jobs": 4,
      "timeout_s": 120.0,
      "retries": 1,
      "cache": {"enabled": true, "dir": ..., "fingerprint": "..."},
      "started_unix": 1700000000.0,
      "wall_time_s": 12.3,
      "counts": {"total": 31, "ok": 31, "failed": 0,
                 "cache_hits": 29, "cache_misses": 2},
      "tasks": [
        {"name": ..., "status": "ok"|"failed", "failure": null|"error"|
         "timeout"|"crashed", "cache": "hit"|"miss"|"off",
         "attempts": 1, "wall_time_s": 0.8, "seed": 123, "error": null},
        ...
      ]
    }
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Any, Dict, Optional, Sequence

from repro.runner.task import TaskResult

SCHEMA_VERSION = 1


def host_metadata() -> Dict[str, Any]:
    return {
        "hostname": platform.node(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
    }


def build_manifest(campaign: str, results: Sequence[TaskResult], *,
                   jobs: int, wall_time_s: float,
                   timeout_s: Optional[float] = None, retries: int = 0,
                   cache_enabled: bool = False,
                   cache_dir: Optional[str] = None,
                   fingerprint: Optional[str] = None,
                   started_unix: Optional[float] = None) -> Dict[str, Any]:
    """Assemble the manifest document for one finished campaign."""
    tasks = [{
        "name": r.name,
        "status": r.status,
        "failure": r.failure,
        "cache": r.cache,
        "attempts": r.attempts,
        "wall_time_s": round(r.wall_time_s, 4),
        "seed": r.seed,
        "error": r.error,
    } for r in results]
    return {
        "schema_version": SCHEMA_VERSION,
        "campaign": campaign,
        "host": host_metadata(),
        "jobs": jobs,
        "timeout_s": timeout_s,
        "retries": retries,
        "cache": {
            "enabled": cache_enabled,
            "dir": cache_dir,
            "fingerprint": fingerprint,
        },
        "started_unix": started_unix if started_unix is not None
        else time.time(),
        "wall_time_s": round(wall_time_s, 4),
        "counts": {
            "total": len(tasks),
            "ok": sum(1 for t in tasks if t["status"] == "ok"),
            "failed": sum(1 for t in tasks if t["status"] == "failed"),
            "cache_hits": sum(1 for t in tasks if t["cache"] == "hit"),
            "cache_misses": sum(1 for t in tasks if t["cache"] == "miss"),
        },
        "tasks": tasks,
    }


def write_manifest(path: str, manifest: Dict[str, Any]) -> None:
    """Atomically write *manifest* as pretty-printed JSON."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=False)
        f.write("\n")
    os.replace(tmp, path)
