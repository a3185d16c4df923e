"""Task model for the experiment-campaign runner.

A :class:`Task` is one unit of work: a picklable callable plus keyword
arguments and a deterministic seed.  Tasks are executed in worker
processes by :mod:`repro.runner.pool`, so the callable must survive
pickling — a module-level function or a :func:`functools.partial` of
one (lambdas only work under the ``fork`` start method).

:func:`task_signature` flattens a task into a stable, JSON-friendly
description of *what* would run (function identity + parameters + seed)
which the campaign record hashes into each task's key, and
:func:`code_fingerprint` names the source tree that ran it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional


def derive_seed(base_seed: int, name: str) -> int:
    """Deterministic per-task seed from a campaign seed and task name.

    Stable across processes and Python versions (unlike ``hash()``),
    so a re-run of the same campaign reproduces every task bit-for-bit
    regardless of scheduling order.
    """
    digest = hashlib.sha256(f"{base_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1)


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


@dataclass
class Task:
    """One schedulable experiment."""

    name: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise TypeError(f"task {self.name!r}: fn must be callable")


def _unwrap(fn: Callable) -> tuple[Callable, tuple, dict]:
    """Peel nested ``functools.partial`` wrappers, merging args/kwargs."""
    args: tuple = ()
    kwargs: dict = {}
    while isinstance(fn, functools.partial):
        kwargs = {**fn.keywords, **kwargs}
        args = fn.args + args
        fn = fn.func
    return fn, args, kwargs


def task_signature(task: Task) -> Dict[str, Any]:
    """Stable description of a task, hashed into its record key.

    Captures the fully-qualified function name, every bound parameter
    (partial args/kwargs plus the task's own kwargs), and the seed.
    Values are rendered with ``repr`` so tuples/floats hash stably.
    """
    fn, args, kwargs = _unwrap(task.fn)
    params = {**kwargs, **task.kwargs}
    return {
        "name": task.name,
        "function": f"{getattr(fn, '__module__', '?')}."
                    f"{getattr(fn, '__qualname__', repr(fn))}",
        "args": [repr(a) for a in args],
        "params": {k: repr(v) for k, v in sorted(params.items())},
        "seed": task.seed,
    }


@dataclass
class TaskResult:
    """Outcome of one task after replay, retries, and degradation."""

    name: str
    status: str = "ok"              # "ok" | "failed"
    value: Any = None
    failure: Optional[str] = None   # "error" | "timeout" | "crashed" | "aborted"
    error: Optional[str] = None     # traceback / diagnostic text
    attempts: int = 0               # 0 means replayed from the record
    wall_time_s: float = 0.0
    seed: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"
