"""Regenerate every paper table/figure in one command.

Usage::

    python -m repro.experiments.run_all [--fast] [--out DIR] [--jobs N]
        [--only PAT[,PAT...]] [--list] [--no-cache] [--timeout S]
        [--retries K]

This module is the one writer of the committed figure tables
(``benchmarks/results/*.txt``) and :func:`experiment_plan` their one
parameter plan: git holds the committed bytes, so a full run followed
by ``git diff -- benchmarks/results`` is the drift check, and
``tests/test_figure_shapes.py`` asserts the paper's shapes on them.
``--fast`` shrinks durations ~3x for a smoke run and defaults to the
git-ignored ``benchmarks/results-fast``, so it cannot change a
committed byte.  Tables are printed and written to ``DIR``.

Experiments run through :mod:`repro.runner`: ``--jobs N`` fans them out
over N worker processes (results are deterministic and identical to a
serial run), and each finished table is appended to the run's record,
``DIR/run_manifest.jsonl``, keyed by (experiment, parameters, seed)
under the source fingerprint, so a re-run with unchanged code replays
it instead of running it.  A record this code cannot adopt (other
source, or corrupt) is replaced by a fresh one, as is any record under
``--no-cache``.  A failed experiment is reported in the summary instead
of aborting the run and is not recorded; the exit code is non-zero if
any experiment failed.
"""

from __future__ import annotations

import argparse
import functools
import os
import time

from repro.experiments import (
    ablations,
    eq06_threshold,
    ext_asymmetric,
    ext_fleet,
    ext_multiflow,
    ext_tcp_splitting,
    fig01_goodput_wlan,
    fig02_bitrates,
    fig03_contention,
    fig05a_holb,
    fig05b_rich_info,
    fig06a_rttmin,
    fig06b_owd_loss,
    fig08_ack_frequency,
    fig09_goodput_trend,
    fig10b_actual_goodput,
    fig11_miracast,
    fig13_hybrid,
    fig14_pantheon,
    fig15_friendliness,
    fig16_beta_bound,
    fig17_freq_model,
)
from repro.experiments.table import Table
from repro.runner import Campaign, ManifestMismatch


def experiment_plan(fast: bool):
    """(name, callable) for every experiment, durations scaled.

    Every callable is a plain function or a :func:`functools.partial`
    of one, so the plan is picklable (ships to worker processes) and
    parameter-introspectable (feeds the record's task key).
    """
    s = (1.0 / 3.0) if fast else 1.0

    def d(x):  # scaled duration with a floor
        return max(x * s, 2.0)

    p = functools.partial
    return [
        ("fig01_goodput_wlan", p(fig01_goodput_wlan.run, duration_s=d(5), warmup_s=d(5) * 0.3)),
        ("fig02_bitrates", fig02_bitrates.run),
        ("fig03_contention", p(fig03_contention.run, duration_s=d(2))),
        ("fig03_contention_rate_adaptation",
         p(fig03_contention.run, duration_s=d(2), rate_adaptation=True,
           per_mpdu_error_rate=0.01)),
        ("fig05a_holb", p(fig05a_holb.run, trials=4 if fast else 8,
                          duration_s=d(6))),
        ("fig05b_rich_info", p(fig05b_rich_info.run, duration_s=d(15), warmup_s=d(15) / 3)),
        ("fig06a_rttmin", p(fig06a_rttmin.run, duration_s=max(d(25), 12.0))),
        ("fig06b_owd_loss", p(fig06b_owd_loss.run, duration_s=d(15))),
        ("fig08a_ack_reduction", fig08_ack_frequency.run_analytic),
        ("fig08b_measured_frequency",
         p(fig08_ack_frequency.run_measured, duration_s=d(4))),
        ("fig09a_improvement",
         p(fig09_goodput_trend.run_improvement, duration_s=d(4), warmup_s=d(4) * 0.35,
           rtts=(0.08, 0.2))),
        ("fig09b_ideal_goodput", p(fig09_goodput_trend.run_ideal, duration_s=d(2))),
        ("fig10b_actual_goodput",
         p(fig10b_actual_goodput.run, duration_s=d(5), warmup_s=d(5) * 0.4)),
        ("fig11_miracast", p(fig11_miracast.run, duration_s=d(15))),
        ("fig13_hybrid", p(fig13_hybrid.run, duration_s=d(8), warmup_s=d(8) / 4)),
        ("fig14_pantheon", p(fig14_pantheon.run, trials=4 if fast else 8,
                             duration_s=d(10), warmup_s=d(10) * 0.3)),
        ("fig15_friendliness",
         p(fig15_friendliness.run, trials=2 if fast else 4, duration_s=d(40))),
        ("fig16_beta_analytic", fig16_beta_bound.run_analytic),
        ("fig16_beta_simulated",
         p(fig16_beta_bound.run_simulated, duration_s=d(12), warmup_s=d(12) / 3)),
        ("fig17a_vs_bandwidth", fig17_freq_model.run_vs_bandwidth),
        ("fig17b_vs_rtt", fig17_freq_model.run_vs_rtt),
        ("eq06_analytic", eq06_threshold.run_analytic),
        ("eq06_simulated", p(eq06_threshold.run_simulated, duration_s=d(12), warmup_s=d(12) / 3)),
        ("ablation_beta_l", p(ablations.run_beta_l_sweep, duration_s=d(4), warmup_s=d(4) * 0.35)),
        ("ablation_pacing", p(ablations.run_pacing_ablation, duration_s=d(12), warmup_s=d(12) / 3)),
        ("ablation_governor", p(ablations.run_governor_ablation, duration_s=d(12))),
        ("ablation_rpc_latency", p(ablations.run_rpc_latency_ablation, duration_s=d(8))),
        ("ext_tcp_splitting", p(ext_tcp_splitting.run, duration_s=d(8), warmup_s=d(8) / 4)),
        ("ext_multiflow", p(ext_multiflow.run, duration_s=d(5), warmup_s=d(5) * 0.3)),
        ("ext_asymmetric", p(ext_asymmetric.run, duration_s=d(8), warmup_s=d(8) / 4)),
        ("ext_fleet", p(ext_fleet.run, duration_s=d(12),
                        loads_hz=(10.0, 40.0) if fast else (10.0, 40.0, 80.0))),
    ]


def filter_plan(plan, only: str):
    """Keep experiments matching any comma-separated substring pattern."""
    patterns = [pat.strip() for pat in only.split(",") if pat.strip()]
    return [(name, fn) for name, fn in plan
            if any(pat in name for pat in patterns)]


def build_campaign(plan, base_seed: int = 1) -> Campaign:
    campaign = Campaign("run_all", base_seed=base_seed)
    for name, fn in plan:
        campaign.add(name, fn)
    return campaign


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="shrink durations ~3x for a smoke run")
    parser.add_argument("--out", default=None,
                        help="output directory for the tables (default "
                             "benchmarks/results, or the git-ignored "
                             "benchmarks/results-fast with --fast)")
    parser.add_argument("--only", default=None, metavar="PAT[,PAT...]",
                        help="run only experiments whose name contains any "
                             "of the comma-separated substrings")
    parser.add_argument("--list", action="store_true",
                        help="print experiment names (after --only "
                             "filtering) and exit without running")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1; results are "
                             "identical to a serial run)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute everything: replace the run record "
                             "instead of replaying it")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="kill any experiment running longer than S "
                             "seconds (default: no timeout)")
    parser.add_argument("--retries", type=int, default=0, metavar="K",
                        help="retry a failed/timed-out/crashed experiment "
                             "up to K extra times (default 0)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.out is None:
        args.out = os.path.join(
            "benchmarks", "results-fast" if args.fast else "results")

    plan = experiment_plan(args.fast)
    available = [name for name, _ in plan]
    if args.only:
        plan = filter_plan(plan, args.only)
        if not plan:
            parser.error(f"no experiment matches {args.only!r}; "
                         f"available: {', '.join(available)}")
    if args.list:
        for name, _ in plan:
            print(name)
        return 0

    os.makedirs(args.out, exist_ok=True)
    campaign = build_campaign(plan)
    total_start = time.time()

    def emit(result):
        """Print and persist each table as its task settles (tables
        stream out in completion order; files are what parity cares
        about)."""
        if result.ok:
            table = Table.from_dict(result.value)
            table.show()
            table.save(os.path.join(args.out, f"{result.name}.txt"))
            tag = " (cached)" if result.attempts == 0 else ""
            print(f"[{result.name}: {result.wall_time_s:.1f}s{tag}]\n")
        else:
            print(f"[{result.name}: FAILED ({result.failure}) after "
                  f"{result.attempts} attempt(s) in "
                  f"{result.wall_time_s:.1f}s]")
            if result.error:
                print(result.error.rstrip())
            print()

    record = os.path.join(args.out, "run_manifest.jsonl")
    if args.no_cache and os.path.exists(record):
        os.remove(record)
    run = functools.partial(campaign.run, jobs=args.jobs,
                            timeout=args.timeout, retries=args.retries,
                            manifest_path=record, on_result=emit)
    try:
        outcome = run()
    except ManifestMismatch as exc:
        print(f"[replacing the run record: {exc}]\n")
        os.remove(record)
        outcome = run()

    hits = len(outcome.replayed)
    cache_note = f" ({hits} cached)" if hits else ""
    print(f"Regenerated {len(outcome.ok)}/{len(plan)} experiments{cache_note} "
          f"in {time.time() - total_start:.0f}s -> {args.out}/")
    if outcome.failed:
        print("FAILED: " + ", ".join(r.name for r in outcome.failed))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
