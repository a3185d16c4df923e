"""Trace CLI: ``python -m repro.telemetry <summarize|filter|diff>``.

This module is *host-side* telemetry code: it runs after (or outside)
a simulation, so wall-clock reads for default output file naming are
allowed here (it is in reprolint's ``HOST_FILES``, so REP001 checks
only the simulation-side modules of this package).

Exit codes follow the reprolint convention: 0 success (for ``diff``:
traces identical), 1 differences found (``diff`` only), 2 usage or
file errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.events import CAT_ACK, CAT_TIMING, CAT_TRANSPORT, TraceEvent
from repro.telemetry.sinks import JsonlSink
from repro.telemetry.trace_io import TraceFormatError, read_trace

#: Version of the ``summarize --json`` / ``diff --json`` documents.
JSON_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _load(path: str) -> tuple[Dict[str, Any], List[TraceEvent]]:
    try:
        return read_trace(path)
    except FileNotFoundError:
        raise SystemExit2(f"error: no such trace file: {path}")
    except TraceFormatError as exc:
        raise SystemExit2(f"error: {exc}")


class SystemExit2(Exception):
    """Usage/file error: caught in main() and mapped to exit code 2."""


def _window(events: List[TraceEvent], start: Optional[float],
            end: Optional[float]) -> List[TraceEvent]:
    if start is None and end is None:
        return events
    lo = start if start is not None else float("-inf")
    hi = end if end is not None else float("inf")
    return [e for e in events if lo <= e.time <= hi]


def _summarize(path: str, events: List[TraceEvent],
               start: Optional[float],
               end: Optional[float]) -> Dict[str, Any]:
    t0 = start if start is not None else (events[0].time if events else 0.0)
    t1 = end if end is not None else (events[-1].time if events else 0.0)
    duration = max(t1 - t0, 0.0)
    categories: Dict[str, int] = {}
    # Per-category wire cost: bytes each category would occupy as
    # schema-v1 JSONL lines (the JsonlSink encoding, newline included),
    # so the table answers "what is filling this trace?".
    category_bytes: Dict[str, int] = {}
    flows: Dict[int, Dict[str, Any]] = {}
    for e in events:
        categories[e.category] = categories.get(e.category, 0) + 1
        wire = len(json.dumps(e.to_dict(), separators=(",", ":"))) + 1
        category_bytes[e.category] = (
            category_bytes.get(e.category, 0) + wire)
        flow = flows.get(e.flow_id)
        if flow is None:
            flow = flows[e.flow_id] = {
                "events": 0,
                "categories": {},
                "acks": {"total": 0, "hz": 0.0, "by_kind": {}, "reasons": {}},
                "data": {"sent": 0, "retx": 0, "delivered_bytes": 0,
                         "goodput_bps": 0.0},
                "timing": {"rtt_samples": 0, "srtt_s": None,
                           "rtt_min_s": None},
            }
        flow["events"] += 1
        flow["categories"][e.category] = (
            flow["categories"].get(e.category, 0) + 1)
        if e.category == CAT_ACK:
            acks = flow["acks"]
            acks["total"] += 1
            acks["by_kind"][e.name] = acks["by_kind"].get(e.name, 0) + 1
            reason = e.fields.get("reason") or "unspecified"
            acks["reasons"][reason] = acks["reasons"].get(reason, 0) + 1
        elif e.category == CAT_TRANSPORT:
            data = flow["data"]
            if e.name == "send":
                data["sent"] += 1
            elif e.name == "retx":
                data["retx"] += 1
            elif e.name == "deliver":
                data["delivered_bytes"] += e.fields.get("nbytes", 0)
        elif e.category == CAT_TIMING and e.name == "rtt_sample":
            timing = flow["timing"]
            timing["rtt_samples"] += 1
            timing["srtt_s"] = e.fields.get("srtt_s", timing["srtt_s"])
            timing["rtt_min_s"] = e.fields.get("rtt_min_s",
                                               timing["rtt_min_s"])
    for flow in flows.values():
        if duration > 0:
            flow["acks"]["hz"] = flow["acks"]["total"] / duration
            flow["data"]["goodput_bps"] = (
                flow["data"]["delivered_bytes"] * 8.0 / duration)
    return {
        "version": JSON_SCHEMA_VERSION,
        "trace": path,
        "events": len(events),
        "window": {"start": t0, "end": t1, "duration_s": duration},
        "categories": categories,
        "category_bytes": category_bytes,
        "flows": {str(fid): flows[fid] for fid in sorted(flows)},
    }


def _print_summary(s: Dict[str, Any]) -> None:
    w = s["window"]
    print(f"trace: {s['trace']}")
    print(f"events: {s['events']}  window: [{w['start']:.3f}, "
          f"{w['end']:.3f}] s  ({w['duration_s']:.3f} s)")
    if s["categories"]:
        nbytes = s.get("category_bytes", {})
        total = s["events"]
        total_bytes = sum(nbytes.values())
        print("by category:")
        print(f"  {'category':<12} {'events':>9} {'bytes':>11} "
              f"{'ev%':>6} {'byte%':>6}")
        for cat in sorted(s["categories"]):
            count = s["categories"][cat]
            size = nbytes.get(cat, 0)
            print(f"  {cat:<12} {count:>9} {size:>11} "
                  f"{100.0 * count / total:>5.1f} "
                  f"{100.0 * size / total_bytes if total_bytes else 0.0:>5.1f}")
    for fid, flow in s["flows"].items():
        acks, data, timing = flow["acks"], flow["data"], flow["timing"]
        print(f"flow {fid}: {flow['events']} events")
        kinds = "  ".join(f"{k}={v}" for k, v in sorted(acks["by_kind"].items()))
        reasons = "  ".join(f"{k}={v}" for k, v in sorted(acks["reasons"].items()))
        print(f"  acks: {acks['total']} ({acks['hz']:.1f}/s)"
              + (f"  kinds: {kinds}" if kinds else "")
              + (f"  reasons: {reasons}" if reasons else ""))
        print(f"  data: sent={data['sent']} retx={data['retx']} "
              f"delivered={data['delivered_bytes']}B "
              f"goodput={data['goodput_bps'] / 1e6:.3f}Mbps")
        if timing["rtt_samples"]:
            srtt = timing["srtt_s"]
            rtt_min = timing["rtt_min_s"]
            print(f"  timing: {timing['rtt_samples']} samples"
                  + (f"  srtt={srtt * 1e3:.2f}ms" if srtt is not None else "")
                  + (f"  rtt_min={rtt_min * 1e3:.2f}ms"
                     if rtt_min is not None else ""))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_summarize(args: argparse.Namespace) -> int:
    _, events = _load(args.trace)
    events = _window(events, args.start, args.end)
    summary = _summarize(args.trace, events, args.start, args.end)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        _print_summary(summary)
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    header, events = _load(args.trace)
    events = _window(events, args.start, args.end)
    if args.category:
        keep = {c.strip() for c in args.category.split(",") if c.strip()}
        events = [e for e in events if e.category in keep]
    if args.flow is not None:
        events = [e for e in events if e.flow_id == args.flow]
    out = args.out
    if out is None:
        # Host-side file naming may read the wall clock (this file is
        # in reprolint's HOST_FILES, outside the no-wall-clock rule).
        stem = args.trace[:-6] if args.trace.endswith(".jsonl") else args.trace
        out = f"{stem}.filtered-{int(time.time())}.jsonl"
    meta = dict(header.get("meta") or {})
    meta["filtered_from"] = args.trace
    sink = JsonlSink(out, meta=meta)
    try:
        for e in events:
            sink.append(e)
    finally:
        sink.close()
    print(f"{out}: {len(events)} events")
    return 0


def _diff_changes(a: Dict[str, Any],
                  b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Flatten the comparable parts of two summaries into change rows."""
    changes: List[Dict[str, Any]] = []

    def compare(key: str, va, vb) -> None:
        if va != vb:
            changes.append({"key": key, "a": va, "b": vb})

    compare("events", a["events"], b["events"])
    for cat in sorted(set(a["categories"]) | set(b["categories"])):
        compare(f"category.{cat}",
                a["categories"].get(cat, 0), b["categories"].get(cat, 0))
    for fid in sorted(set(a["flows"]) | set(b["flows"])):
        fa = a["flows"].get(fid)
        fb = b["flows"].get(fid)
        if fa is None or fb is None:
            changes.append({"key": f"flow.{fid}",
                            "a": "present" if fa else "absent",
                            "b": "present" if fb else "absent"})
            continue
        for kind in sorted(set(fa["acks"]["by_kind"]) | set(fb["acks"]["by_kind"])):
            compare(f"flow.{fid}.acks.{kind}",
                    fa["acks"]["by_kind"].get(kind, 0),
                    fb["acks"]["by_kind"].get(kind, 0))
        for reason in sorted(set(fa["acks"]["reasons"]) | set(fb["acks"]["reasons"])):
            compare(f"flow.{fid}.ack_reason.{reason}",
                    fa["acks"]["reasons"].get(reason, 0),
                    fb["acks"]["reasons"].get(reason, 0))
        compare(f"flow.{fid}.sent", fa["data"]["sent"], fb["data"]["sent"])
        compare(f"flow.{fid}.retx", fa["data"]["retx"], fb["data"]["retx"])
        compare(f"flow.{fid}.delivered_bytes",
                fa["data"]["delivered_bytes"], fb["data"]["delivered_bytes"])
    return changes


def _retx_timeline(events: List[TraceEvent]) -> List[Dict[str, Any]]:
    return [{"t": round(e.time, 6), "flow": e.flow_id,
             "seq": e.fields.get("seq"), "pkt_seq": e.fields.get("pkt_seq")}
            for e in events
            if e.category == CAT_TRANSPORT and e.name == "retx"]


def cmd_diff(args: argparse.Namespace) -> int:
    _, events_a = _load(args.trace_a)
    _, events_b = _load(args.trace_b)
    sum_a = _summarize(args.trace_a, events_a, None, None)
    sum_b = _summarize(args.trace_b, events_b, None, None)
    changes = _diff_changes(sum_a, sum_b)
    retx_a = _retx_timeline(events_a)
    retx_b = _retx_timeline(events_b)
    if args.json:
        print(json.dumps({
            "version": JSON_SCHEMA_VERSION,
            "a": args.trace_a,
            "b": args.trace_b,
            "identical": not changes,
            "changes": changes,
            "retx_timelines": {"a": retx_a, "b": retx_b},
        }, indent=2))
    else:
        print(f"a: {args.trace_a} ({sum_a['events']} events)")
        print(f"b: {args.trace_b} ({sum_b['events']} events)")
        if not changes:
            print("traces are identical (by summary)")
        for change in changes:
            print(f"  {change['key']}: {change['a']} -> {change['b']}")
        if len(retx_a) != len(retx_b):
            print(f"  retransmissions: {len(retx_a)} -> {len(retx_b)}")
    return 1 if changes else 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Inspect repro-telemetry JSONL traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize",
                       help="per-flow / per-category stats for one trace")
    p.add_argument("trace")
    p.add_argument("--json", action="store_true")
    p.add_argument("--start", type=float, default=None,
                   help="window start (sim seconds)")
    p.add_argument("--end", type=float, default=None,
                   help="window end (sim seconds)")
    p.set_defaults(fn=cmd_summarize)

    p = sub.add_parser("filter",
                       help="write a sub-trace by category/flow/time window")
    p.add_argument("trace")
    p.add_argument("-o", "--out", default=None,
                   help="output path (default: <trace>.filtered-<ts>.jsonl)")
    p.add_argument("--category", default=None,
                   help="comma-separated categories to keep")
    p.add_argument("--flow", type=int, default=None)
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--end", type=float, default=None)
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser("diff",
                       help="compare two traces (counts, ACK reasons, retx)")
    p.add_argument("trace_a")
    p.add_argument("trace_b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_diff)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize odd codes.
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except SystemExit2 as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
