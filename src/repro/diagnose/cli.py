"""``python -m repro.diagnose`` — flow-doctor CLI.

Subcommands::

    report  TRACE             per-flow state timeline + anomalies
    check   TRACE --expect S  assert the dominant diagnosis (exit 1 on
                              mismatch) — CI-friendly
    explain A B               attribute the goodput delta between two
                              traces of the same experiment

Exit codes: 0 success, 1 check failed (diagnosis mismatch),
2 usage/format error — the same convention as the telemetry CLI.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional

from repro.diagnose.explain import explain_reports
from repro.diagnose.offline import diagnose_trace

__all__ = ["main"]


def _load_report(path: str) -> Dict[str, Any]:
    try:
        return diagnose_trace(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")


def _fmt_seconds(secs: float) -> str:
    return f"{secs:.3f}"


def _print_report(report: Dict[str, Any], path: str) -> None:
    print(f"# diagnosis of {path}")
    print(f"# digest {report['digest']}")
    for fid, flow in sorted(report["flows"].items()):
        dur = flow["duration_s"]
        print(f"flow {fid}: {flow['outcome']}"
              + (f" ({flow['abort_reason']})" if flow["abort_reason"] else "")
              + f", {_fmt_seconds(dur)} s,"
              f" {flow['bytes_acked']} bytes acked,"
              f" {flow['goodput_bps'] / 1e6:.3f} Mbit/s,"
              f" dominant {flow['dominant']}")
        header = f"  {'state':<16} {'time s':>10} {'share':>7} {'bytes':>12}"
        print(header)
        for state, secs in sorted(flow["state_time_s"].items(),
                                  key=lambda kv: -kv[1]):
            share = secs / dur if dur > 0 else 0.0
            nbytes = flow["state_bytes"].get(state, 0)
            print(f"  {state:<16} {secs:>10.4f} {share:>6.1%} {nbytes:>12}")
        rho = flow["rho"]
        if rho["truth"] is not None:
            est = "-" if rho["est"] is None else f"{rho['est']:.3f}"
            print(f"  rho': est {est}, truth {rho['truth']:.3f} "
                  f"({rho['fb_seen']}/{rho['max_fb_seq'] + 1} feedback seen)")
        for finding in flow["anomalies"]:
            extra = {k: v for k, v in finding.items()
                     if k not in ("kind", "evidence")}
            detail = ", ".join(
                f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(extra.items()))
            print(f"  anomaly {finding['kind']}: {detail}"
                  f" (evidence offsets {finding.get('evidence', [])})")


def cmd_report(args: argparse.Namespace) -> int:
    report = _load_report(args.trace)
    if args.json:
        json.dump(report, sys.stdout, indent=None if args.compact else 2,
                  sort_keys=True)
        print()
    else:
        _print_report(report, args.trace)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    report = _load_report(args.trace)
    flows = report["flows"]
    if args.flow is not None:
        flows = {k: v for k, v in flows.items() if k == str(args.flow)}
        if not flows:
            raise SystemExit(f"error: no flow {args.flow} in {args.trace}")
    if not flows:
        raise SystemExit(f"error: no flows diagnosed in {args.trace}")
    failures = []
    for fid, flow in sorted(flows.items()):
        kinds = {finding["kind"] for finding in flow["anomalies"]}
        if args.expect is not None:
            accepted = args.expect.split("|")
            if not any(tok == flow["dominant"] or tok in kinds
                       for tok in accepted):
                failures.append(
                    f"flow {fid}: dominant {flow['dominant']} "
                    f"(anomalies: {sorted(kinds) or 'none'}), "
                    f"expected {args.expect}")
        if args.max_anomalies is not None:
            total = sum(finding.get("count", 1)
                        for finding in flow["anomalies"])
            if total > args.max_anomalies:
                failures.append(
                    f"flow {fid}: {total} anomalies "
                    f"> allowed {args.max_anomalies}")
    for line in failures:
        print(f"FAIL {line}")
    if not failures:
        doms = {flow["dominant"] for flow in flows.values()}
        print(f"OK {len(flows)} flow(s), dominant {sorted(doms)}")
    return 1 if failures else 0


def cmd_explain(args: argparse.Namespace) -> int:
    report_a = _load_report(args.trace_a)
    report_b = _load_report(args.trace_b)
    result = explain_reports(report_a, report_b,
                             label_a=args.label_a, label_b=args.label_b)
    if args.json:
        json.dump(result, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(result["headline"])
        for d in result["attribution"]:
            print(f"  {d['state']:<16} {d['delta_s']:>+10.4f} s"
                  f"  ({d['share']:>6.1%} of added time)"
                  if d["delta_s"] > 0 else
                  f"  {d['state']:<16} {d['delta_s']:>+10.4f} s")
        for kind, diff in sorted(result["anomaly_delta"].items()):
            print(f"  anomaly {kind}: {diff:+d}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.diagnose",
        description="Flow doctor: diagnose schema-v1 traces.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_report = sub.add_parser("report", help="per-flow diagnosis report")
    p_report.add_argument("trace")
    p_report.add_argument("--json", action="store_true")
    p_report.add_argument("--compact", action="store_true",
                          help="single-line JSON (implies --json)")
    p_report.add_argument("--save", metavar="PATH",
                          help="also write the JSON report to PATH")
    p_report.set_defaults(fn=cmd_report)

    p_check = sub.add_parser(
        "check", help="assert the dominant diagnosis (exit 1 on mismatch)")
    p_check.add_argument("trace")
    p_check.add_argument("--expect", metavar="STATE[|STATE...]",
                         help="accepted dominant state or anomaly kind; "
                              "'|' separates alternatives")
    p_check.add_argument("--flow", type=int, default=None,
                         help="check only this flow id")
    p_check.add_argument("--max-anomalies", type=int, default=None)
    p_check.set_defaults(fn=cmd_check)

    p_explain = sub.add_parser(
        "explain", help="attribute the goodput delta between two traces")
    p_explain.add_argument("trace_a")
    p_explain.add_argument("trace_b")
    p_explain.add_argument("--label-a", default="A")
    p_explain.add_argument("--label-b", default="B")
    p_explain.add_argument("--json", action="store_true")
    p_explain.add_argument("--save", metavar="PATH")
    p_explain.set_defaults(fn=cmd_explain)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "compact", False):
        args.json = True
    try:
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
