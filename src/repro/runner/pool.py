"""Process-pool executor with per-task timeout, retry, and degradation.

The scheduler runs each attempt in its **own** worker process (one
process per attempt, at most *jobs* alive at once).  This costs a few
milliseconds of fork overhead per task — negligible next to a
simulation — and buys the two properties a shared pool cannot offer:

* a hung task can be *killed* (``Process.terminate``) without poisoning
  sibling workers, and
* a crashed worker (segfault, ``os._exit``, OOM kill) is detected via
  its exit code and degrades to a reported failure instead of
  deadlocking the campaign.

Results travel back over a one-way pipe.  Determinism: every attempt
reseeds ``random`` (and numpy, when present) from the task's own seed
before calling the function, so results are independent of scheduling
order and of how many workers run concurrently.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection  # noqa: F401  (populates mp.connection)
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.runner.task import Task, TaskResult

#: polling granularity of the scheduler loop (also bounds how stale a
#: timeout check can be).
_POLL_S = 0.05


def _seed_everything(seed: int) -> None:
    import random
    random.seed(seed)
    try:  # numpy is not a dependency; seed it only if it is around
        import numpy
        numpy.random.seed(seed % (2**32))
    except Exception:
        pass


def _child_main(conn, fn: Callable, kwargs: dict, seed: Optional[int]) -> None:
    """Worker entry point: run one attempt, ship the outcome back."""
    from repro.transport.errors import ConnectionAborted, abort_result
    try:
        if seed is not None:
            _seed_everything(seed)
        value = fn(**kwargs)
        conn.send(("ok", value, None))
    except ConnectionAborted as exc:
        # A structured transport abort is an *outcome*, not a crash:
        # the simulation terminated deliberately (RTO exhaustion, dead
        # path, ...).  Report it as a degraded result — deterministic,
        # so retrying would only reproduce it.
        conn.send(("aborted", abort_result(exc.info), exc.info.describe()))
    except BaseException:
        conn.send(("error", None, traceback.format_exc()))
    finally:
        conn.close()


@dataclass
class _Running:
    task: Task
    index: int
    attempt: int
    proc: mp.process.BaseProcess
    conn: mp.connection.Connection
    started: float = field(default_factory=time.monotonic)


def execute_tasks(tasks: Sequence[Task], jobs: int = 1,
                  timeout: Optional[float] = None, retries: int = 0,
                  context: Optional[str] = None,
                  on_result: Optional[Callable[[TaskResult], None]] = None,
                  ) -> List[TaskResult]:
    """Run *tasks* over a pool of worker processes.

    Returns one :class:`TaskResult` per task, in the order given.  A
    task is retried up to *retries* extra attempts after an error,
    timeout, or worker crash; when every attempt fails the result is
    marked ``failed`` and the campaign continues (graceful
    degradation).  *on_result* fires as each task settles, enabling
    streaming consumption while later tasks still run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")

    try:
        ctx = mp.get_context(context or "fork")
    except ValueError:  # platform without fork (Windows, some macOS)
        ctx = mp.get_context("spawn")

    pending: deque[tuple[int, Task, int]] = deque(
        (i, t, 1) for i, t in enumerate(tasks))
    running: List[_Running] = []
    results: Dict[int, TaskResult] = {}
    spent: Dict[int, float] = {}  # cumulative wall time across attempts

    def settle(run: _Running, kind: str, value, error) -> None:
        elapsed = time.monotonic() - run.started
        spent[run.index] = spent.get(run.index, 0.0) + elapsed
        # "aborted" is deterministic — never retried.
        if kind not in ("ok", "aborted") and run.attempt <= retries:
            pending.append((run.index, run.task, run.attempt + 1))
            return
        result = TaskResult(
            name=run.task.name,
            status="ok" if kind == "ok" else "failed",
            value=value,
            failure=None if kind == "ok" else kind,
            error=error,
            attempts=run.attempt,
            wall_time_s=spent[run.index],
            seed=run.task.seed,
        )
        results[run.index] = result
        if on_result is not None:
            on_result(result)

    while pending or running:
        while pending and len(running) < jobs:
            index, task, attempt = pending.popleft()
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_child_main,
                args=(send_end, task.fn, task.kwargs, task.seed),
                daemon=True,
            )
            proc.start()
            send_end.close()  # child holds the only write end now
            running.append(_Running(task, index, attempt, proc, recv_end))

        if not running:
            continue

        # Sleep until some worker is readable (result ready or pipe
        # closed by a dying child) or the poll interval elapses so
        # timeouts stay responsive.
        mp.connection.wait([r.conn for r in running], timeout=_POLL_S)

        now = time.monotonic()
        still_running: List[_Running] = []
        for run in running:
            finished = True
            if run.conn.poll():
                try:
                    kind, value, error = run.conn.recv()
                    run.proc.join()
                except (EOFError, OSError):
                    # Readable-at-EOF: the child died without sending
                    # (crash, os._exit, kill) and its pipe end closed.
                    run.proc.join()
                    kind, value, error = (
                        "crashed", None,
                        f"worker exited with code {run.proc.exitcode} "
                        "before reporting a result")
                settle(run, kind, value, error)
            elif not run.proc.is_alive():
                run.proc.join()
                settle(run, "crashed", None,
                       f"worker exited with code {run.proc.exitcode} "
                       "before reporting a result")
            elif timeout is not None and now - run.started > timeout:
                run.proc.terminate()
                run.proc.join()
                settle(run, "timeout", None,
                       f"killed after exceeding {timeout:g}s timeout")
            else:
                finished = False
                still_running.append(run)
            if finished:
                run.conn.close()
        running = still_running

    return [results[i] for i in sorted(results)]
