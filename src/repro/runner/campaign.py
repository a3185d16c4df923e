"""The one campaign driver: record -> pool -> record.

A :class:`Campaign` is an ordered set of independent tasks (paper
figures, fleet shards, sweep cells).  :meth:`Campaign.run`

1. adopts the campaign's durable record
   (:class:`repro.runner.manifest.Manifest`), if it is given one, and
   settles every task already in it from its recorded value without
   running it;
2. fans the rest out over the worker pool
   (:func:`repro.runner.pool.execute_tasks`) with per-task timeout and
   bounded retry;
3. appends each task that finishes ok to the record before it settles;
   and
4. returns a :class:`CampaignResult` of the settled tasks, plan-ordered.

Failed tasks never abort the campaign and are never recorded: they
are reported in the result, a re-run retries them, and the caller
decides what a failure means.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.runner.manifest import Manifest, task_key
from repro.runner.pool import execute_tasks
from repro.runner.task import Task, TaskResult, code_fingerprint, derive_seed


class CampaignResult:
    """Plan-ordered results of the tasks that settled in one run."""

    def __init__(self, results: List[TaskResult], planned: int):
        self.results = results
        self.planned = planned

    @property
    def ok(self) -> List[TaskResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> List[TaskResult]:
        return [r for r in self.results if not r.ok]

    @property
    def replayed(self) -> List[TaskResult]:
        return [r for r in self.results if r.attempts == 0]

    @property
    def complete(self) -> bool:
        return len(self.results) == self.planned and not self.failed


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
            timeout: Optional[float] = None, retries: int = 0,
            manifest_path=None,
            fingerprint: Optional[str] = None,
            config: Any = None,
            max_tasks: Optional[int] = None,
            on_result: Optional[Callable[[TaskResult], None]] = None,
            ) -> CampaignResult:
        """Run every task not already in the record at *manifest_path*.

        Without a record every task runs and values stay as returned.
        With one, under *fingerprint* (default: :func:`code_fingerprint`)
        and *config* in its header, a task's value is its JSON form as
        recorded, whether replayed or fresh.  A record of another
        campaign raises :class:`~repro.runner.manifest.ManifestMismatch`
        before any task runs.  *max_tasks* caps how many tasks this run
        executes; *on_result* fires as each task settles.
        """
        results: Dict[str, TaskResult] = {}
        keys = {task.name: task_key(task) for task in self.tasks}

        def deliver(result: TaskResult) -> None:
            results[result.name] = result
            if on_result is not None:
                on_result(result)

        manifest = None if manifest_path is None else Manifest(manifest_path)
        recorded: Dict[str, Dict[str, Any]] = {} if manifest is None else \
            manifest.open(self.name, fingerprint or code_fingerprint(), config)

        def settle(result: TaskResult) -> None:
            if result.ok and manifest is not None:
                result.value = manifest.append(keys[result.name], result)
            deliver(result)

        try:
            todo: List[Task] = []
            for task in self.tasks:
                entry = recorded.get(keys[task.name])
                if entry is None:
                    todo.append(task)
                else:
                    deliver(TaskResult(name=task.name, value=entry["value"],
                                       seed=task.seed))
            execute_tasks(todo[:max_tasks], jobs=jobs, timeout=timeout,
                          retries=retries, on_result=settle)
        finally:
            if manifest is not None:
                manifest.close()

        return CampaignResult(
            [results[t.name] for t in self.tasks if t.name in results],
            planned=len(self.tasks))
