"""Chaos CLI: ``python -m repro.chaos <list|run>``.

``list`` prints the scenario library, the ``adv-*`` misbehaving-peer
scenarios marked as adversaries; ``run`` executes one scenario (or
``--all`` fault scenarios) against one or more schemes and reports each
run's ending.  Exit codes follow the repo convention: 0 every run ended as
its scenario expects, 1 at least one run misbehaved, 2 usage errors.

Examples::

    python -m repro.chaos list
    python -m repro.chaos run --scenario blackout
    python -m repro.chaos run --all --scheme tcp-tack --scheme tcp-bbr
    python -m repro.chaos run --scenario dead-path --simsan --json
    python -m repro.chaos run --scenario adv-field-mangler --scheme tcp-tack
    python -m repro.chaos run --scenario flap --trace flap.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.chaos.runner import ChaosResult, run_scenario
from repro.chaos.scenarios import (ADVERSARY_SCENARIOS, DEFAULT_SCHEMES,
                                   SCENARIOS, get_scenario)


def cmd_list(args: argparse.Namespace) -> int:
    library = [*sorted(SCENARIOS.values(), key=lambda s: s.name),
               *sorted(ADVERSARY_SCENARIOS.values(), key=lambda s: s.name)]
    if args.json:
        print(json.dumps([
            {"name": s.name, "expect": s.expect, "adversary": s.adversary,
             "description": s.description} for s in library
        ], indent=2))
        return 0
    width = max(len(s.name) for s in library)
    for s in library:
        kind = "adversary" if s.adversary else "fault"
        print(f"{s.name:<{width}}  {kind:<9}  [{s.expect:>7}]  {s.description}")
    return 0


def _run_one(name: str, scheme: str, args: argparse.Namespace,
             trace_path: Optional[str]) -> ChaosResult:
    telemetry = None
    collector = None
    if trace_path is not None:
        from repro.telemetry import JsonlSink, TraceCollector

        collector = TraceCollector(sink=JsonlSink(
            trace_path, meta={"scenario": name, "scheme": scheme}))
        telemetry = collector
    try:
        return run_scenario(
            get_scenario(name), scheme=scheme, seed=args.seed,
            simsan=True if args.simsan else None, telemetry=telemetry,
        )
    finally:
        if collector is not None:
            collector.close()


def cmd_run(args: argparse.Namespace) -> int:
    if args.all:
        names = sorted(SCENARIOS)
    elif args.scenario:
        names = args.scenario
    else:
        print("error: pass --scenario NAME (repeatable) or --all",
              file=sys.stderr)
        return 2
    schemes = args.scheme or list(DEFAULT_SCHEMES)
    try:
        for name in names:
            get_scenario(name)  # validate before running anything
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    results: list[ChaosResult] = []
    multi = len(names) * len(schemes) > 1
    for name in names:
        for scheme in schemes:
            trace_path = args.trace
            if trace_path is not None and multi:
                stem = trace_path[:-6] if trace_path.endswith(".jsonl") \
                    else trace_path
                trace_path = f"{stem}.{name}.{scheme}.jsonl"
            results.append(_run_one(name, scheme, args, trace_path))
    failures = [r for r in results if not (r.ok and r.diagnosis_ok())]
    if args.json:
        print(json.dumps({
            "ok": not failures,
            "runs": [r.to_dict() for r in results],
        }, indent=2))
    else:
        for r in results:
            mark = "ok " if r.ok and r.diagnosis_ok() else "FAIL"
            detail = (f"{r.bytes_delivered}/{r.transfer_bytes}B "
                      f"in {r.sim_time_s:.2f}s")
            if r.abort is not None:
                detail += f"  abort={r.abort['reason']}"
            dominant = r.dominant_diagnosis()
            if dominant is not None:
                detail += f"  dx={dominant}"
                anomalies = r.anomaly_kinds()
                if anomalies:
                    detail += f"+{','.join(anomalies)}"
                if not r.diagnosis_ok():
                    detail += f" (expect {r.expect_diagnosis})"
            print(f"{mark}  {r.scenario:<16} {r.scheme:<18} "
                  f"{r.outcome:<9} (expect {r.expect})  {detail}")
        if failures:
            print(f"{len(failures)}/{len(results)} runs misbehaved")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic fault-injection scenarios for the "
                    "transport simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="print the scenario library, adversaries "
                                    "marked")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("run", help="run scenarios against schemes")
    p.add_argument("--scenario", action="append", default=None,
                   help="scenario name (repeatable)")
    p.add_argument("--all", action="store_true",
                   help="run every fault scenario, the strict-mode "
                        "false-positive suite (adv-* scenarios run only "
                        "by name)")
    p.add_argument("--scheme", action="append", default=None,
                   help=f"protocol scheme (repeatable; default "
                        f"{', '.join(DEFAULT_SCHEMES)})")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--simsan", action="store_true",
                   help="force runtime invariant checks on")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a telemetry JSONL trace (per-run suffix "
                        "added when sweeping)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
