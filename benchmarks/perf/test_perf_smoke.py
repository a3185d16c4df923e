"""Smoke test of the repo benchmark (not part of tier-1; run with
``PYTHONPATH=src python -m pytest benchmarks/perf -q``).

Each workload runs at a tenth of its simulated duration for one round,
through the same command line the driver uses, and must emit exactly
the metric names ``BENCHMARK.json`` lists.  The traced pass must leave
a span file whose parents form a tree and whose self times account for
the traced wall.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)


def _driver_run(workload: str, trace: int, seed: int = 1) -> dict:
    done = _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--scale", "0.1", "--rounds", "1")
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_exactly_the_listed_ones(workload):
    metrics = _driver_run(workload, trace=0)
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in metrics.items()} == listed
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_metrics_tree_and_self_time(workload):
    metrics = _driver_run(workload, trace=1)
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in metrics.items()} == listed

    shares = sum(m["value"] for n, m in metrics.items()
                 if n.endswith(".share_pct"))
    assert abs(shares - 100.0) < 1.0, shares
    wlan_runs = workload == "tack_wlan_bulk"
    assert (metrics["wlan.share_pct"]["value"] > 0) == wlan_runs

    with open(os.path.join(HERE, "out", f"trace_{workload}.json")) as f:
        trace = json.load(f)
    start, end, parent, run = (trace[k] for k in
                               ("start_ns", "end_ns", "parent", "run"))
    assert len(start) == sum(
        metrics[f"{layer}.calls"]["value"] for layer in trace["layers"])
    for i, above in enumerate(parent):
        assert start[i] <= end[i]
        if above >= 0:      # a child lies inside an earlier span, same run
            assert above < i
            assert start[above] <= start[i] and end[i] <= end[above]
            assert run[above] == run[i]


def test_a_second_seed_changes_the_counts():
    first = _driver_run("bbr_wired_bulk", trace=1, seed=1)
    second = _driver_run("bbr_wired_bulk", trace=1, seed=2)
    assert (first["netsim.engine.events"]["value"]
            != second["netsim.engine.events"]["value"])


def test_usage_error_exits_2():
    assert _run("--workload", "no_such_workload").returncode == 2
    assert _run("--trace", "7").returncode == 2
