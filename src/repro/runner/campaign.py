"""Campaign orchestration: cache -> pool -> manifest.

A :class:`Campaign` is an ordered set of independent tasks (paper
figures, ablation grid points, sweep cells).  :meth:`Campaign.run`

1. fingerprints the ``repro`` source tree and checks the on-disk
   result cache — unchanged tasks resolve instantly as cache hits;
2. fans the misses out over the worker pool
   (:func:`repro.runner.pool.execute_tasks`) with per-task timeout and
   bounded retry;
3. stores fresh results back into the cache; and
4. returns a :class:`CampaignResult` (plan-ordered results + manifest),
   optionally writing the manifest JSON to disk.

Failed tasks never abort the campaign: they are reported in the
results/manifest and the caller decides what a failure means.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.runner.cache import ResultCache, code_fingerprint
from repro.runner.manifest import build_manifest, write_manifest
from repro.runner.pool import execute_tasks
from repro.runner.task import Task, TaskResult, derive_seed, task_signature


class CampaignResult:
    """Plan-ordered task results plus the run manifest."""

    def __init__(self, results: List[TaskResult], manifest: Dict[str, Any]):
        self.results = results
        self.manifest = manifest

    @property
    def ok(self) -> List[TaskResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> List[TaskResult]:
        return [r for r in self.results if not r.ok]


class Campaign:
    """An ordered collection of independent tasks."""

    def __init__(self, name: str = "campaign", base_seed: int = 1):
        self.name = name
        self.base_seed = base_seed
        self.tasks: List[Task] = []
        self._names: set[str] = set()

    def add(self, name: str, fn: Callable[..., Any],
            seed: Optional[int] = None, **kwargs: Any) -> Task:
        """Append a task; its seed defaults to ``derive_seed(base, name)``."""
        if name in self._names:
            raise ValueError(f"duplicate task name {name!r}")
        task = Task(name=name, fn=fn, kwargs=kwargs,
                    seed=derive_seed(self.base_seed, name)
                    if seed is None else seed)
        self._names.add(name)
        self.tasks.append(task)
        return task

    # ------------------------------------------------------------------
    def run(self, jobs: int = 1, *,
            cache_dir: Optional[str] = None,
            timeout: Optional[float] = None, retries: int = 0,
            manifest_path: Optional[str] = None,
            fingerprint: Optional[str] = None,
            on_result: Optional[Callable[[TaskResult], None]] = None,
            ) -> CampaignResult:
        """Execute the campaign; caching is on iff *cache_dir* is given."""
        started_unix = time.time()
        started = time.monotonic()

        cache: Optional[ResultCache] = None
        if cache_dir is not None:
            if fingerprint is None:
                fingerprint = code_fingerprint()
            cache = ResultCache(cache_dir, fingerprint)

        results: Dict[str, TaskResult] = {}
        misses: List[Task] = []
        keys: Dict[str, str] = {}
        for task in self.tasks:
            if cache is None:
                misses.append(task)
                continue
            key = cache.key_for(task)
            keys[task.name] = key
            hit_started = time.monotonic()
            hit, value = cache.load(key)
            if hit:
                result = TaskResult(
                    name=task.name, status="ok", value=value,
                    attempts=0,
                    wall_time_s=time.monotonic() - hit_started,
                    cache="hit", seed=task.seed)
                results[task.name] = result
                if on_result is not None:
                    on_result(result)
            else:
                misses.append(task)

        def settle(result: TaskResult) -> None:
            task = next(t for t in self.tasks if t.name == result.name)
            if cache is not None:
                result.cache = "miss"
                if result.ok:
                    cache.store(
                        keys[result.name], result.value,
                        meta={
                            "signature": task_signature(task),
                            "fingerprint": cache.fingerprint,
                            "wall_time_s": result.wall_time_s,
                            "stored_unix": time.time(),
                        })
            results[result.name] = result
            if on_result is not None:
                on_result(result)

        if misses:
            execute_tasks(misses, jobs=jobs, timeout=timeout,
                          retries=retries, on_result=settle)

        ordered = [results[t.name] for t in self.tasks]
        manifest = build_manifest(
            self.name, ordered, jobs=jobs,
            wall_time_s=time.monotonic() - started,
            timeout_s=timeout, retries=retries,
            cache_enabled=cache is not None,
            cache_dir=cache_dir,
            fingerprint=cache.fingerprint if cache is not None else None,
            started_unix=started_unix)
        if manifest_path is not None:
            write_manifest(manifest_path, manifest)
        return CampaignResult(ordered, manifest)
