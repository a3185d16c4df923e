"""The repo benchmark: four simulator workloads, end-to-end metrics with
tracing off, and a span-traced per-layer cost ledger.

    python3 benchmarks/perf/run.py                      # everything, as a table
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py --repeat 2           # self-check against the bounds

With ``--workload`` and ``--trace`` the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` for ``--trace 0``, the
per-layer metrics for ``--trace 1``.  Every workload runs in child
processes of its own (``child.py``), one at a time.  Host timings are
host time; counts and goodput are simulated and repeat exactly for a
fixed seed.

Exit code 0 when every operation succeeded, 1 when any failed or a
``--repeat`` comparison is out of bounds, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 7


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _child(mode: str, workload: str, seed: int, scale: float, *extra) -> str:
    """Run one measured process to completion; its standard output."""
    done = subprocess.run(
        [sys.executable, CHILD, mode, "--workload", workload,
         "--seed", str(seed), "--scale", str(scale), *extra],
        stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{mode} child of {workload} exited with {done.returncode}")
    return done.stdout


def _setup_s(workload: str, seed: int, scale: float) -> float:
    """Median host seconds of fresh interpreters that import, build the
    inputs and construct, without running."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()  # reprolint: disable=REP001
        _child("setup", workload, seed, scale)
        samples.append(time.perf_counter() - started)  # reprolint: disable=REP001
    return statistics.median(samples)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            rounds: int = 0, scale: float = 1.0) -> dict:
    """One run of one workload: the driver's result object, plus the
    child's ``notes`` and ``detail`` for the table."""
    extra = ["--seconds", str(seconds), "--rounds", str(rounds)]
    report = json.loads(_child("traced" if trace else "timed", workload,
                               seed, scale, *extra).splitlines()[-1])
    if not trace:
        report["metrics"]["setup_s"] = {
            "value": _setup_s(workload, seed, scale), "unit": "s"}
    report["correct"] = report["failed"] == 0
    return report


def _result_line(report: dict) -> str:
    return json.dumps({key: report[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def _print_table(workload: str, seed: int, trace: bool, report: dict) -> None:
    detail = report["detail"]
    print(f"== {workload}  seed={seed}  "
          f"{'traced pass' if trace else 'tracing off'}  "
          f"n={detail['rounds']} rounds of host time: "
          f"floor {detail['floor_s']:.3f} s, median {detail['median_s']:.3f} s")
    for name, metric in report["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    share = report["failed"] / report["attempted"]
    print(f"  {'failed_share':40s} {share:>16.6g} "
          f"({report['failed']} of {report['attempted']} operations)")
    for note in report["notes"]:
        print(f"  ! {note}")


def _repeat_check(sets: list, spec: dict) -> bool:
    """Compare the first two sets of runs: every end-to-end metric must
    agree within its bound, every simulated metric (counts, span calls,
    and the two ratios made of counts alone) must be identical."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    simulated = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    simulated |= {"sim.goodput_mbps", "ack.tack_hz_err_pct"}
    ok = True
    print("== repeat check: set 1 against set 2")
    for (workload, _), first, second in zip(
            sets[0], sets[0].values(), sets[1].values()):
        identical = 0
        for name, metric in first["metrics"].items():
            a, b = metric["value"], second["metrics"][name]["value"]
            if name in bounds:
                passed = abs(b - a) <= bounds[name] * abs(a)
                limit = f"bound {bounds[name]:.0%}"
            elif name in simulated:
                passed = a == b
                identical += passed
                limit = "identical"
                if passed:
                    continue
            else:
                continue
            ok = ok and passed
            print(f"  {workload:16s} {name:32s} {a:>12.6g} {b:>12.6g} "
                  f"{(b - a) / a if a else 0.0:+8.2%}  {limit:10s} "
                  f"{'PASS' if passed else 'FAIL'}")
        if identical:
            print(f"  {workload:16s} {identical} simulated metrics identical")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds of timed rounds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off; "
                             "1: per-layer metrics (default: both)")
    parser.add_argument("--rounds", type=int, default=0,
                        help="exactly this many timed rounds, whatever "
                             "--seconds says")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload's simulated duration")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run everything this many times and compare "
                             "the first two sets against the bounds")
    args = parser.parse_args(argv)      # exits with 2 on usage errors

    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; have {names}")
    if args.rounds < 0 or args.scale <= 0 or args.repeat < 1:
        parser.error("--rounds, --scale and --repeat must be positive")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = names if args.workload is None else [args.workload]
    traces = (False, True) if args.trace is None else (bool(args.trace),)
    driver_run = args.workload is not None and args.trace is not None

    failed = 0
    sets = []
    for _ in range(args.repeat):
        sets.append({})
        for workload in workloads:
            for trace in traces:
                report = measure(workload, args.seed, seconds, trace,
                                 args.rounds, args.scale)
                sets[-1][(workload, trace)] = report
                failed += report["failed"]
                _print_table(workload, args.seed, trace, report)
                if driver_run:
                    print(_result_line(report))
    if driver_run:
        return 0            # the result line carries the failures
    if args.repeat > 1 and not _repeat_check(sets, spec):
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
