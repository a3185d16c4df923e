"""The measured process: one workload, in a fresh interpreter.

``run.py`` starts this file three ways:

* ``setup``  — import, build the inputs, construct up to but not
  including the first ``Simulator.run``, and exit; the parent times the
  whole process, which is ``setup_s``;
* ``timed``  — one warm-up round, then timed rounds of the unmodified
  program; prints the end-to-end metrics but ``setup_s``;
* ``traced`` — a few untraced rounds, one span-traced round, the
  isolated drivers and the plane overheads; prints the per-layer
  metrics and writes ``out/trace_<workload>.json``.

The last line of standard output is one JSON object.  Metric names and
units are those of ``BENCHMARK.json``: a listed metric this file does
not produce is an error, not a silent zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import isolated  # noqa: E402
import planes  # noqa: E402
from timing import round_floor_s, round_loops  # noqa: E402
from tracing import LAYERS, Tracer, Untraced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 5
BASELINE_ROUNDS = 3
OUT_DIR = os.path.join(HERE, "out")


def _round(workload, inputs, env):
    """One round; construction and garbage collection happen outside
    the timed slices."""
    state = workload.prepare(inputs, env)
    gc.collect()
    return workload.execute(state, env)


class _Tally:
    """Operations attempted and failed over every round of a run, with
    the determinism checks counted as failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.reference = None

    def add(self, result, label: str) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        self.notes += [f"{label}: {note}" for note in result.notes]
        if self.reference is None:
            self.reference = result.counts
        elif result.counts != self.reference:
            changed = sorted(k for k in self.reference
                             if result.counts.get(k) != self.reference[k])
            self.fail(f"{label}: counts differ from the first round: {changed}")

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def check_other_seed(self, result) -> None:
        """A workload that ignores its seed would repeat its counts."""
        if result.counts == self.reference:
            self.fail("seed + 1 produced the same counts")


def timed(workload, seed, scale, seconds, rounds):
    env = Untraced()
    other_seed = _round(workload, workload.build(seed + 1, scale), env)
    inputs = workload.build(seed, scale)
    tally = _Tally()
    done = []
    began = time.perf_counter()  # reprolint: disable=REP001
    while (len(done) < rounds if rounds else
           len(done) < MIN_ROUNDS
           or time.perf_counter() - began < seconds):  # reprolint: disable=REP001
        done.append(_round(workload, inputs, env))
        tally.add(done[-1], f"round {len(done)}")
    tally.check_other_seed(other_seed)
    return tally, {
        "host_loops_per_pkt": _loops(done) / done[-1].data_pkts,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, _detail(done)


def _loops(rounds: list) -> float:
    return round_loops([r.slices for r in rounds])


def _detail(rounds: list) -> dict:
    """Raw host seconds, for the table."""
    return {"rounds": len(rounds),
            "floor_s": round_floor_s([r.slices for r in rounds]),
            "median_s": statistics.median(
                sum(r.slices.host_s) for r in rounds)}


def traced(workload, seed, scale, rounds):
    # The isolated drivers and plane pairs run first, on a heap that has
    # not yet held a million spans.
    spin, notes = isolated.spin_events_per_s(seed, scale)
    ops, more = isolated.intervals_ops_per_s(seed, scale)
    overheads, plane_notes = planes.measure(seed, scale)
    tally = _Tally()
    for note in notes + more + plane_notes:
        tally.fail(note)

    inputs = workload.build(seed, scale)
    done = []
    for n in range(rounds or BASELINE_ROUNDS):
        done.append(_round(workload, inputs, Untraced()))
        tally.add(done[-1], f"untraced round {n + 1}")
    host_s = round_floor_s([r.slices for r in done])
    tracer = Tracer()
    result = _round(workload, inputs, tracer)
    traced_s = sum(result.slices.host_s)
    tally.add(result, "traced round")
    tally.check_other_seed(
        _round(workload, workload.build(seed + 1, scale), Untraced()))

    ledger = tracer.ledger()
    values = {**LAYER_ABSENT, **tracer.counts(), **result.counts, **overheads}
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace_{workload.name}.json"),
                 workload.name)
    for layer in LAYERS:
        calls, self_ns = ledger[layer]
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_ns / 1e9
        values[f"{layer}.share_pct"] = self_ns / 1e7 / traced_s

    def self_us_per(layer: str, count: str) -> float:
        return 1e-3 * ledger[layer][1] / values[count] if values[count] else 0.0

    values.update({
        "netsim.engine.us_per_event":
            1e6 * host_s / values["netsim.engine.events"],
        "transport.sender.us_per_feedback":
            self_us_per("transport.sender.fb", "transport.sender.feedbacks"),
        "transport.receiver.us_per_segment":
            self_us_per("transport.receiver", "transport.receiver.segments"),
        "fleet.flows_per_wall_s": values["fleet.flows_started"] / host_s,
        "host.us_per_pkt": 1e6 * host_s / result.data_pkts,
        "trace.overhead_pct": 100.0 * _loops([result]) / _loops(done) - 100.0,
        "sim.goodput_mbps":
            result.delivered_bytes * 8.0 / result.sim_seconds / 1e6,
        "netsim.engine.spin_events_per_s": spin,
        "transport.intervals.ops_per_s": ops,
    })
    return tally, values, {**_detail(done), "traced_s": traced_s}


# What the layers that run on one workload only report on the others.
LAYER_ABSENT = dict.fromkeys((
    "wlan.txops", "wlan.collisions", "wlan.mpdus_per_txop",
    "ack.tack_hz_err_pct", "fleet.flows_started", "fleet.peak_active",
    "chaos.runs", "chaos.verdict_match_share"), 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        workload.prepare(workload.build(args.seed, args.scale), Untraced())
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.mode == "timed":
        tally, values, detail = timed(workload, args.seed, args.scale,
                                      args.seconds, args.rounds)
        listed = [m for m in spec["end_to_end"] if m["name"] != "setup_s"]
    else:
        tally, values, detail = traced(workload, args.seed, args.scale,
                                       args.rounds)
        listed = spec["per_layer"]
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
