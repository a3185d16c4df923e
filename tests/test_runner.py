"""Tests for the campaign runner: cache, pool, manifest, campaign."""
# reprolint: disable-file=REP001,REP002  (host-side pool: real timeouts, worker RNG)

from __future__ import annotations

import functools
import json
import os
import time

import pytest

from repro.experiments import fig08_ack_frequency, fig17_freq_model
from repro.runner import (Campaign, ResultCache, Task, code_fingerprint,
                          derive_seed, execute_tasks, task_signature)


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


class TestCache:
    def test_hit_then_miss_semantics(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        task = Task("t", add, kwargs={"a": 1, "b": 2}, seed=3)
        key = cache.key_for(task)
        assert cache.load(key) == (False, None)
        assert cache.store(key, 42, meta={"note": "test"})
        assert cache.load(key) == (True, 42)

    def test_key_changes_with_params_seed_and_code(self, tmp_path):
        cache1 = ResultCache(str(tmp_path), fingerprint="f1")
        cache2 = ResultCache(str(tmp_path), fingerprint="f2")
        base = Task("t", add, kwargs={"a": 1, "b": 2}, seed=3)
        other_param = Task("t", add, kwargs={"a": 1, "b": 99}, seed=3)
        other_seed = Task("t", add, kwargs={"a": 1, "b": 2}, seed=4)
        keys = {cache1.key_for(base), cache1.key_for(other_param),
                cache1.key_for(other_seed), cache2.key_for(base)}
        assert len(keys) == 4  # all distinct

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f")
        key = cache.key_for(Task("t", add))
        cache.store(key, 1)
        with open(os.path.join(str(tmp_path), key + ".pkl"), "wb") as f:
            f.write(b"garbage")
        assert cache.load(key) == (False, None)

    def test_code_fingerprint_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestCampaign:
    def test_cache_skips_reexecution(self, tmp_path):
        counter = str(tmp_path / "calls")
        cache_dir = str(tmp_path / "cache")

        def build():
            c = Campaign("c")
            c.add("rec", record_call, path=counter, value=7)
            return c

        (first,) = build().run(cache_dir=cache_dir).results
        assert first.cache == "miss"
        assert first.value == 7
        assert calls_in(counter) == 1

        (second,) = build().run(cache_dir=cache_dir).results
        assert second.cache == "hit"
        assert second.value == 7
        assert calls_in(counter) == 1  # not executed again

    def test_parameter_change_invalidates_cache(self, tmp_path):
        counter = str(tmp_path / "calls")
        cache_dir = str(tmp_path / "cache")
        c1 = Campaign("c")
        c1.add("rec", record_call, path=counter, value=1)
        c1.run(cache_dir=cache_dir)
        c2 = Campaign("c")
        c2.add("rec", record_call, path=counter, value=2)
        (rec,) = c2.run(cache_dir=cache_dir).results
        assert rec.cache == "miss"
        assert rec.value == 2
        assert calls_in(counter) == 2

    def test_failure_does_not_abort_campaign(self, tmp_path):
        c = Campaign("c")
        c.add("boom", hard_crash)
        c.add("ok", add, a=1, b=1)
        outcome = c.run(jobs=2)
        assert [r.name for r in outcome.failed] == ["boom"]
        assert [(r.name, r.value) for r in outcome.ok] == [("ok", 2)]

    def test_failed_results_never_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        c1 = Campaign("c")
        c1.add("boom", hard_crash)
        c1.run(cache_dir=cache_dir)
        c2 = Campaign("c")
        c2.add("boom", hard_crash)
        (boom,) = c2.run(cache_dir=cache_dir).results
        assert boom.cache == "miss"
        assert not boom.ok

    def test_manifest_written_with_schema(self, tmp_path):
        manifest_path = str(tmp_path / "m.json")
        c = Campaign("mycampaign")
        c.add("a", add, a=1, b=2)
        c.add("boom", hard_crash)
        outcome = c.run(jobs=2, retries=1, manifest_path=manifest_path)
        with open(manifest_path) as f:
            manifest = json.load(f)
        assert manifest == outcome.manifest
        assert manifest["schema_version"] == 1
        assert manifest["campaign"] == "mycampaign"
        assert manifest["jobs"] == 2
        assert manifest["counts"] == {"total": 2, "ok": 1, "failed": 1,
                                      "cache_hits": 0, "cache_misses": 0}
        by_name = {t["name"]: t for t in manifest["tasks"]}
        assert by_name["a"]["status"] == "ok"
        assert by_name["boom"]["status"] == "failed"
        assert by_name["boom"]["failure"] == "crashed"
        assert by_name["boom"]["attempts"] == 2
        assert manifest["host"]["python"]
        assert json.dumps(manifest)  # JSON-serializable end to end

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
