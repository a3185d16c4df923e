"""Profiling CLI: ``python -m repro.profile top``.

Host-side tooling (wall-clock reads are its whole job; the exempt
globs carve this package out of the determinism lint).

``top`` profiles a canned bulk-transfer workload, prints the hottest
handlers, and optionally writes the JSON report and a
flamegraph-ready collapsed-stack file.

Exit codes follow the reprolint/telemetry convention: 0 success,
2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.profile.profiler import Profiler
from repro.profile.report import render_top, write_profile


def _profiled_workload(args: argparse.Namespace) -> Profiler:
    """Run the canned bulk-transfer workload under a profiler."""
    from repro.core.flavors import make_connection
    from repro.netsim.engine import Simulator
    from repro.netsim.paths import wired_path

    prof = Profiler(label=f"top:{args.scheme}", memory=args.memory)
    sim = Simulator(seed=args.seed, profiler=prof)
    path = wired_path(sim, args.rate_mbps * 1e6, args.rtt_ms / 1e3)
    conn = make_connection(sim, args.scheme, initial_rtt_s=args.rtt_ms / 1e3)
    conn.wire(path.forward, path.reverse)
    conn.start_bulk()
    sim.run(until=args.duration_s)
    return prof


def cmd_top(args: argparse.Namespace) -> int:
    prof = _profiled_workload(args)
    report = prof.report()
    print(f"workload: {args.scheme} bulk, {args.rate_mbps:g} Mbps, "
          f"{args.rtt_ms:g} ms RTT, {args.duration_s:g} simulated s")
    print(render_top(report, args.top))
    if args.json_out:
        write_profile(args.json_out, report)
        print(f"report: {args.json_out}")
    if args.flamegraph:
        parent = os.path.dirname(args.flamegraph)
        if parent:
            os.makedirs(parent, exist_ok=True)
        n = prof.write_collapsed(args.flamegraph)
        print(f"flamegraph: {args.flamegraph} ({n} stacks)")
    prof.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="Simulator profiling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("top", help="profile a canned workload and print "
                                   "the hottest handlers")
    p.add_argument("--scheme", default="tcp-tack")
    p.add_argument("--duration-s", type=float, default=1.0)
    p.add_argument("--rate-mbps", type=float, default=50.0)
    p.add_argument("--rtt-ms", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-n", "--top", type=int, default=12)
    p.add_argument("--memory", action="store_true",
                   help="include a tracemalloc snapshot")
    p.add_argument("--flamegraph", default=None, metavar="PATH",
                   help="write collapsed stacks for flamegraph tooling")
    p.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                   help="write the JSON report")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    return cmd_top(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
