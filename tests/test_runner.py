"""Tests for the campaign runner: pool, record, campaign."""
# reprolint: disable-file=REP001,REP002  (host-side pool: real timeouts, worker RNG)

from __future__ import annotations

import functools
import json
import os
import time

import pytest

from repro.experiments import fig08_ack_frequency, fig17_freq_model, run_all
from repro.runner import (Campaign, Manifest, ManifestMismatch, Task,
                          TaskResult, code_fingerprint, derive_seed,
                          execute_tasks, task_signature)
from repro.runner.manifest import task_key


# ---------------------------------------------------------------------------
# Module-level task bodies: must be importable so they pickle under any
# multiprocessing start method.  Cross-process side effects go through
# files because each attempt runs in its own worker process.

def add(a, b):
    return a + b


def record_call(path, value=1):
    """Append one line to *path* and return *value*."""
    with open(path, "a") as f:
        f.write("x\n")
    return value


def sleep_forever():
    time.sleep(600)


def hard_crash():
    os._exit(3)  # bypasses exception handling, like a segfault


def aborted_transfer(path):
    """Raise a structured transport abort, recording each attempt."""
    from repro.transport.errors import AbortInfo, ConnectionAborted
    with open(path, "a") as f:
        f.write("attempt\n")
    raise ConnectionAborted(AbortInfo(
        reason="rto_exhausted", at_s=12.5, flow_id=0, attempts=11,
        detail="dead path"))


def flaky(path):
    """Fail on the first attempt, succeed on the second."""
    if not os.path.exists(path):
        with open(path, "w") as f:
            f.write("seen\n")
        raise RuntimeError("first attempt fails")
    return "recovered"


def seeded_sample():
    import random
    return [random.random() for _ in range(4)]


def calls_in(path) -> int:
    if not os.path.exists(path):
        return 0
    with open(path) as f:
        return sum(1 for _ in f)


# ---------------------------------------------------------------------------
class TestTaskModel:
    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_signature_unwraps_partials(self):
        task = Task("t", functools.partial(add, a=1), kwargs={"b": 2}, seed=7)
        sig = task_signature(task)
        assert sig["function"].endswith("add")
        assert sig["params"] == {"a": "1", "b": "2"}
        assert sig["seed"] == 7

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            Task("t", fn="not callable")


class TestPool:
    def test_results_in_plan_order(self):
        tasks = [Task(f"t{i}", functools.partial(add, i, 10))
                 for i in range(5)]
        results = execute_tasks(tasks, jobs=3)
        assert [r.name for r in results] == [t.name for t in tasks]
        assert [r.value for r in results] == [10, 11, 12, 13, 14]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_timeout_kills_and_retries(self):
        task = Task("hang", sleep_forever)
        start = time.monotonic()
        (result,) = execute_tasks([task], jobs=1, timeout=0.5, retries=1)
        assert not result.ok
        assert result.failure == "timeout"
        assert result.attempts == 2
        assert time.monotonic() - start < 30  # killed, not waited out

    def test_crashed_worker_degrades_gracefully(self):
        tasks = [Task("boom", hard_crash),
                 Task("fine", functools.partial(add, 2, 3))]
        results = execute_tasks(tasks, jobs=2)
        boom, fine = results
        assert boom.failure == "crashed"
        assert "exited with code 3" in boom.error
        assert fine.ok and fine.value == 5

    def test_exception_captured_with_traceback(self):
        (result,) = execute_tasks(
            [Task("flaky", flaky, kwargs={"path": "/nonexistent/nope/x"})])
        assert result.failure == "error"
        assert "FileNotFoundError" in result.error

    def test_connection_abort_is_degraded_not_retried(self, tmp_path):
        marker = str(tmp_path / "attempts")
        (result,) = execute_tasks(
            [Task("dead", aborted_transfer, kwargs={"path": marker})],
            retries=2)
        assert not result.ok
        assert result.failure == "aborted"
        assert result.value["reason"] == "rto_exhausted"
        assert "rto_exhausted" in result.error
        # Deterministic outcome: retrying would only reproduce it.
        assert result.attempts == 1
        with open(marker) as f:
            assert len(f.readlines()) == 1

    def test_retry_recovers_flaky_task(self, tmp_path):
        marker = str(tmp_path / "marker")
        (result,) = execute_tasks(
            [Task("flaky", flaky, kwargs={"path": marker})], retries=1)
        assert result.ok
        assert result.value == "recovered"
        assert result.attempts == 2

    def test_seed_reproducible_across_workers(self):
        a = execute_tasks([Task("s", seeded_sample, seed=99)], jobs=1)
        b = execute_tasks([Task("s", seeded_sample, seed=99)], jobs=2)
        c = execute_tasks([Task("s", seeded_sample, seed=100)])
        assert a[0].value == b[0].value
        assert a[0].value != c[0].value

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            execute_tasks([], jobs=0)
        with pytest.raises(ValueError):
            execute_tasks([], timeout=-1)


def task_lines(path):
    """The record's task lines, in file order."""
    with open(path) as f:
        lines = [json.loads(line) for line in f]
    return [line for line in lines if line["kind"] == "task"]


class TestCache:
    """The campaign record as the store of finished values."""

    def test_hit_then_miss_semantics(self, tmp_path):
        path = tmp_path / "m.jsonl"
        task = Task("t", add, kwargs={"a": 1, "b": 2}, seed=3)
        key = task_key(task)
        with Manifest(path) as m:
            assert m.open("c", "f1") == {}
            assert m.append(key, TaskResult("t", value=42, attempts=1,
                                            seed=3)) == 42
        with Manifest(path) as m:
            entry = m.open("c", "f1")[key]
        assert (entry["name"], entry["value"], entry["seed"]) == ("t", 42, 3)

    def test_key_changes_with_params_seed_and_code(self, tmp_path):
        base = Task("t", add, kwargs={"a": 1, "b": 2}, seed=3)
        other_param = Task("t", add, kwargs={"a": 1, "b": 99}, seed=3)
        other_seed = Task("t", add, kwargs={"a": 1, "b": 2}, seed=4)
        keys = {task_key(base), task_key(other_param), task_key(other_seed)}
        assert len(keys) == 3  # all distinct
        # Code: the fingerprint lives in the header, and a record under
        # another fingerprint is refused rather than replayed.
        path = tmp_path / "m.jsonl"
        with Manifest(path) as m:
            m.open("c", "f1")
        with Manifest(path) as m, pytest.raises(ManifestMismatch):
            m.open("c", "f2")

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        args = ["--fast", "--only", "fig17a", "--out", str(tmp_path)]
        assert run_all.main(args) == 0
        record = tmp_path / "run_manifest.jsonl"
        header, task = record.read_text().splitlines()
        record.write_text(f"{header}\ngarbage\n{task}\n")
        with pytest.raises(ManifestMismatch):
            Manifest(record).load()
        # run_all replaces a record it cannot adopt: the table runs
        # again and lands in a fresh, readable record.
        assert run_all.main(args) == 0
        assert [t["name"] for t in task_lines(record)] == [
            "fig17a_vs_bandwidth"]

    def test_code_fingerprint_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestCampaign:
    def test_cache_skips_reexecution(self, tmp_path):
        counter = str(tmp_path / "calls")
        record = str(tmp_path / "m.jsonl")

        def build():
            c = Campaign("c")
            c.add("rec", record_call, path=counter, value=7)
            return c

        (first,) = build().run(manifest_path=record).results
        assert first.attempts == 1
        assert first.value == 7
        assert calls_in(counter) == 1

        (second,) = build().run(manifest_path=record).results
        assert second.attempts == 0  # replayed from the record
        assert second.value == 7
        assert calls_in(counter) == 1  # not executed again

    def test_parameter_change_invalidates_cache(self, tmp_path):
        counter = str(tmp_path / "calls")
        record = str(tmp_path / "m.jsonl")
        c1 = Campaign("c")
        c1.add("rec", record_call, path=counter, value=1)
        c1.run(manifest_path=record)
        c2 = Campaign("c")
        c2.add("rec", record_call, path=counter, value=2)
        (rec,) = c2.run(manifest_path=record).results
        assert rec.attempts == 1
        assert rec.value == 2
        assert calls_in(counter) == 2

    def test_failure_does_not_abort_campaign(self, tmp_path):
        c = Campaign("c")
        c.add("boom", hard_crash)
        c.add("ok", add, a=1, b=1)
        outcome = c.run(jobs=2)
        assert [r.name for r in outcome.failed] == ["boom"]
        assert [(r.name, r.value) for r in outcome.ok] == [("ok", 2)]
        assert not outcome.complete

    def test_failed_results_never_cached(self, tmp_path):
        record = str(tmp_path / "m.jsonl")
        c1 = Campaign("c")
        c1.add("boom", hard_crash)
        c1.run(manifest_path=record)
        assert task_lines(record) == []
        c2 = Campaign("c")
        c2.add("boom", hard_crash)
        (boom,) = c2.run(manifest_path=record).results
        assert boom.attempts == 1  # ran again, not replayed
        assert not boom.ok

    def test_manifest_written_with_schema(self, tmp_path):
        record = str(tmp_path / "m.jsonl")
        c = Campaign("mycampaign")
        c.add("a", add, a=1, b=2)
        c.add("boom", hard_crash)
        outcome = c.run(jobs=2, retries=1, manifest_path=record,
                        fingerprint="fp", config={"k": 1})
        assert [r.name for r in outcome.ok] == ["a"]
        assert [(r.failure, r.attempts) for r in outcome.failed] == [
            ("crashed", 2)]
        with open(record) as f:
            header, *tasks = [json.loads(line) for line in f]
        assert header["kind"] == "header"
        assert header["campaign"] == "mycampaign"
        assert (header["fingerprint"], header["config"]) == ("fp", {"k": 1})
        assert header["host"]["python"]
        (a,) = tasks  # the failed task is not recorded
        assert a["kind"] == "task"
        assert sorted(a) == ["attempts", "key", "kind", "name", "seed",
                             "value", "wall_time_s"]
        assert (a["name"], a["value"], a["attempts"]) == ("a", 3, 1)
        assert a["key"] == task_key(c.tasks[0])
        assert a["seed"] == c.tasks[0].seed

    def test_duplicate_names_rejected(self):
        c = Campaign("c")
        c.add("a", add)
        with pytest.raises(ValueError):
            c.add("a", add)


class TestExperimentParity:
    """Serial and parallel execution must emit byte-identical tables."""

    def _campaign(self):
        c = Campaign("parity")
        c.add("fig08b", functools.partial(fig08_ack_frequency.run_measured,
                                          duration_s=0.5))
        c.add("fig17a", fig17_freq_model.run_vs_bandwidth)
        return c

    def test_serial_vs_parallel_identical(self):
        serial = self._campaign().run(jobs=1)
        parallel = self._campaign().run(jobs=2)
        assert not serial.failed and not parallel.failed
        assert ([r.value.format_text() for r in serial.results]
                == [r.value.format_text() for r in parallel.results])
