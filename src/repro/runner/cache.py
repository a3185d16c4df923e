"""On-disk result cache for campaign tasks.

Keys are content hashes of ``(task signature, code fingerprint)`` —
see :func:`repro.runner.task.task_signature` for the former and
:func:`code_fingerprint` for the latter.  Any change to an experiment's
parameters, its seed, or *any* source file of the ``repro`` package
invalidates the entry, so a warm cache can never serve stale tables.

Entries are two files under the cache root::

    <key>.pkl    pickled return value (e.g. a Table)
    <key>.json   human-readable metadata (task signature, timings)

Corrupt or unreadable entries degrade to a cache miss.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pickle
from typing import Any, Dict, Optional, Tuple

from repro.runner.task import Task, task_signature


def code_fingerprint(package: str = "repro") -> str:
    """sha256 over every ``.py`` source file of *package*.

    File contents and package-relative paths both feed the hash, so
    renames, additions, deletions, and edits all change the
    fingerprint.  Byte-compiled caches (``__pycache__``) are ignored.
    """
    mod = importlib.import_module(package)
    root = os.path.dirname(os.path.abspath(mod.__file__))
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


class ResultCache:
    """Content-addressed store of task return values."""

    def __init__(self, root: str, fingerprint: str = ""):
        self.root = root
        self.fingerprint = fingerprint
        os.makedirs(root, exist_ok=True)

    # -- keying --------------------------------------------------------
    def key_for(self, task: Task) -> str:
        payload = {
            "signature": task_signature(task),
            "fingerprint": self.fingerprint,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def _paths(self, key: str) -> Tuple[str, str]:
        return (os.path.join(self.root, key + ".pkl"),
                os.path.join(self.root, key + ".json"))

    # -- lookup / store ------------------------------------------------
    def load(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; unreadable entries count as misses."""
        pkl, _ = self._paths(key)
        try:
            with open(pkl, "rb") as f:
                return True, pickle.load(f)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            return False, None

    def store(self, key: str, value: Any,
              meta: Optional[Dict[str, Any]] = None) -> bool:
        """Persist *value*; returns False if it cannot be pickled."""
        pkl, meta_path = self._paths(key)
        tmp = pkl + ".tmp"
        try:
            with open(tmp, "wb") as f:
                pickle.dump(value, f)
        except (pickle.PickleError, TypeError, AttributeError):
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        os.replace(tmp, pkl)
        if meta is not None:
            with open(meta_path, "w") as f:
                json.dump(meta, f, indent=2, sort_keys=True, default=repr)
        return True
