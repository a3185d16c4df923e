"""``python -m repro.fleet`` — run, resume, and report fleet campaigns.

Host-side code: argument parsing, progress printing, file layout.
All simulation happens in :mod:`repro.fleet.shard` workers; nothing
here draws randomness or touches simulated time, which is why this
module (and the campaign/report plumbing) sits outside
reprolint's sim scope while ``workload``/``shard`` sit inside it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.fleet.campaign import DEFAULT_SCHEMES, FleetConfig, run_fleet
from repro.fleet.report import (
    aggregate,
    aggregate_digest,
    campaign_report,
    load_campaign,
    report_table,
)
from repro.fleet.workload import WorkloadConfig
from repro.runner import ManifestMismatch, TaskResult
from repro.stats.streaming import LogHistogram


def _manifest_path(out_dir: str) -> Path:
    return Path(out_dir) / "manifest.jsonl"


class _Progress:
    """Streaming one-line-per-shard progress with running percentiles.

    Shards replayed from the record count too, tagged ``recorded``;
    failed shards are reported after the run.
    """

    def __init__(self, total: int, quiet: bool):
        self.total = total
        self.done = 0
        self.quiet = quiet
        self.fct: Optional[LogHistogram] = None

    def __call__(self, result: TaskResult) -> None:
        if self.quiet or not result.ok:
            return
        shard = result.value
        self.done += 1
        fct = LogHistogram.from_dict(shard["digests"]["fct_s"])
        if self.fct is None:
            self.fct = fct
        else:
            self.fct.merge(fct)
        flows = shard["flows"]
        if self.fct.count:
            p50 = self.fct.quantile(50) * 1e3
            p99 = self.fct.quantile(99) * 1e3
            running = f"running fct p50={p50:8.1f}ms p99={p99:9.1f}ms"
        else:
            running = "running fct (no completed flows yet)"
        print(f"[{self.done:>4}/{self.total}] "
              f"shard{shard['shard_id']:04d} {shard['scheme']:<18} "
              f"flows {flows['completed']:>5}/{flows['started']:<5} "
              f"{running}{' recorded' if result.attempts == 0 else ''}",
              flush=True)


def _config_from_args(args: argparse.Namespace) -> FleetConfig:
    workload = WorkloadConfig(
        arrival=args.arrival,
        mean_arrival_hz=args.arrival_hz,
        duration_s=args.duration,
        diurnal_amplitude=args.diurnal_amplitude,
        diurnal_period_s=args.diurnal_period,
        size_dist=args.size_dist,
        size_median_bytes=args.size_median,
        size_sigma=args.size_sigma,
        n_users=args.users,
    )
    return FleetConfig(
        schemes=tuple(s.strip() for s in args.schemes.split(",") if s.strip()),
        shards_per_scheme=args.shards,
        seed=args.seed,
        workload=workload,
        rate_bps=args.rate_mbps * 1e6,
        uplink_rate_bps=args.uplink_mbps * 1e6,
        rtt_s=args.rtt_ms / 1e3,
        drain_s=args.drain,
        max_active=args.max_active,
        phy=args.phy,
        power=args.power,
    )


def _execute(config: FleetConfig, args: argparse.Namespace,
             resumed: bool) -> int:
    manifest = _manifest_path(args.out)
    total = len(config.schemes) * config.shards_per_scheme
    if not args.quiet:
        expected = config.total_flows_expected()
        mode = "resuming" if resumed else "starting"
        print(f"{mode} campaign {config.fingerprint()[:16]}: "
              f"{total} shards, ~{expected:,.0f} flows expected, "
              f"jobs={args.jobs}", flush=True)
    try:
        outcome = run_fleet(
            config, manifest,
            jobs=args.jobs,
            max_shards=args.max_shards,
            timeout_s=args.timeout,
            on_result=_Progress(total, args.quiet),
        )
    except ManifestMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in outcome.failed:
        print(f"shard failed: {result.name}: {result.failure}",
              file=sys.stderr)
    if outcome.complete:
        _render_report(manifest, args)
        return 0
    if not args.quiet:
        remaining = outcome.planned - len(outcome.ok)
        print(f"campaign incomplete: {remaining} shards remaining "
              f"({len(outcome.failed)} failed); "
              f"re-run `repro.fleet resume --out {args.out}` to continue",
              flush=True)
    return 1 if outcome.failed else 0


def _render_report(manifest: Path, args: argparse.Namespace) -> None:
    report = campaign_report(manifest)
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    if not args.quiet:
        print()
    report_table(report).show()
    save = getattr(args, "save", None)
    if save:
        Path(save).parent.mkdir(parents=True, exist_ok=True)
        Path(save).write_text(json.dumps(report, indent=2, sort_keys=True)
                              + "\n")
        if not args.quiet:
            print(f"report saved to {save}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    return _execute(_config_from_args(args), args, resumed=False)


def cmd_resume(args: argparse.Namespace) -> int:
    manifest = _manifest_path(args.out)
    try:
        config, _ = load_campaign(manifest)
    except (ManifestMismatch, FileNotFoundError) as exc:
        print(f"error: cannot resume: {exc}", file=sys.stderr)
        return 2
    return _execute(config, args, resumed=True)


def cmd_report(args: argparse.Namespace) -> int:
    manifest = _manifest_path(args.out)
    try:
        report = campaign_report(manifest)
    except (ManifestMismatch, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.check_complete and report["missing_shards"]:
        print(f"error: campaign incomplete, missing shards "
              f"{report['missing_shards']}", file=sys.stderr)
        return 1
    _render_report(manifest, args)
    return 0


def cmd_digest(args: argparse.Namespace) -> int:
    """Print only the aggregate digest (CI resume-equality check)."""
    manifest = _manifest_path(args.out)
    try:
        _, shards = load_campaign(manifest)
    except (ManifestMismatch, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(aggregate_digest(aggregate(shards.values())))
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True,
                        help="campaign directory (manifest.jsonl lives here)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")


def _add_exec(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--max-shards", type=int, default=None,
                        help="stop after running N new shards "
                             "(deterministic interruption for testing)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-shard timeout in seconds")
    parser.add_argument("--json", action="store_true",
                        help="print the final report as JSON")
    parser.add_argument("--save", default=None,
                        help="also write the JSON report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Fleet-scale edge simulation campaigns "
                    "(TACK vs ACK schemes under user churn)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start (or resume) a campaign")
    _add_common(run)
    _add_exec(run)
    run.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES),
                     help="comma-separated scheme list")
    run.add_argument("--shards", type=int, default=4,
                     help="shards (APs) per scheme")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--arrival", choices=("poisson", "onoff"),
                     default="poisson")
    run.add_argument("--arrival-hz", type=float, default=50.0,
                     help="mean flow arrivals per second per shard")
    run.add_argument("--duration", type=float, default=30.0,
                     help="arrival window per shard, seconds")
    run.add_argument("--diurnal-amplitude", type=float, default=0.0)
    run.add_argument("--diurnal-period", type=float, default=60.0)
    run.add_argument("--size-dist", choices=("lognormal", "pareto"),
                     default="lognormal")
    run.add_argument("--size-median", type=int, default=50_000)
    run.add_argument("--size-sigma", type=float, default=1.2)
    run.add_argument("--users", type=int, default=50,
                     help="on/off user population per shard")
    run.add_argument("--rate-mbps", type=float, default=100.0,
                     help="AP downlink rate")
    run.add_argument("--uplink-mbps", type=float, default=20.0,
                     help="AP uplink (ACK path) rate")
    run.add_argument("--rtt-ms", type=float, default=30.0)
    run.add_argument("--drain", type=float, default=10.0,
                     help="grace period after the arrival window, seconds")
    run.add_argument("--max-active", type=int, default=2048)
    run.add_argument("--phy", default="802.11n",
                     help="PHY profile for the ACK airtime ledger")
    run.add_argument("--power", default="wavelan",
                     help="radio power model for the energy ledger "
                          "(wavelan, wavelan-psm)")
    run.set_defaults(fn=cmd_run)

    resume = sub.add_parser(
        "resume", help="continue an interrupted campaign from its manifest")
    _add_common(resume)
    _add_exec(resume)
    resume.set_defaults(fn=cmd_resume)

    report = sub.add_parser("report", help="aggregate and print a campaign")
    _add_common(report)
    report.add_argument("--json", action="store_true")
    report.add_argument("--save", default=None)
    report.add_argument("--check-complete", action="store_true",
                        help="fail if any planned shard is missing")
    report.set_defaults(fn=cmd_report)

    digest = sub.add_parser(
        "digest", help="print the campaign's aggregate digest")
    _add_common(digest)
    digest.set_defaults(fn=cmd_digest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
