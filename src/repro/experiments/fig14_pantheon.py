"""Fig. 14: Pantheon-style WAN ranking by Kleinrock power.

The paper ranks 11 schemes on real Internet paths over 200 days by
log(mean throughput / 95th-pct OWD).  Substitution (DESIGN.md): the
measurement nodes become randomized emulated WAN paths (bandwidth,
RTT, buffer, loss, optional on/off cross traffic), and the scheme set
is restricted to the transports implemented in this repository — the
learned/exotic controllers (Indigo, PCC, Copa, Verus, Sprout) are
whole papers of their own.  The reproducible shape: delay-conscious
schemes (Vegas, TACK) rank near the top, loss-based CUBIC/Reno in the
middle, BBR behind them on buffer-bloated paths — matching the paper's
ordering of its common subset (Vegas 1st, TACK 2nd, CUBIC 3rd,
BBR 7th).
"""

from __future__ import annotations

from repro.app.bulk import BulkFlow
from repro.app.cross_traffic import OnOffCrossTraffic
from repro.experiments.table import Table
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path
from repro.stats.ranking import rank_schemes

SCHEMES = ["tcp-tack", "tcp-vegas", "tcp-cubic", "tcp-reno", "tcp-bbr",
           "tcp-bbr-l16", "tcp-tack-poor"]


def _trial(seed: int, duration_s: float, warmup_s: float) -> dict:
    import random
    rng = random.Random(seed)
    rate = rng.uniform(5e6, 100e6)
    rtt = rng.uniform(0.01, 0.2)
    buf = rng.uniform(0.5, 5.0)
    loss = rng.choice([0.0, 0.0, 0.001, 0.005])
    cross = rng.random() < 0.5
    scores = {}
    for scheme in SCHEMES:
        sim = Simulator(seed=seed)
        path = wired_path(sim, rate, rtt,
                          queue_bytes=max(int(buf * rate * rtt / 8), 20_000),
                          data_loss=loss)
        flow = BulkFlow(sim, path, scheme, initial_rtt_s=rtt)
        if cross:
            x = OnOffCrossTraffic(sim, path.forward, rate_bps=0.3 * rate)
            x.start()
        flow.start()
        sim.run(until=duration_s)
        try:
            scores[scheme] = flow.collector.power(start=warmup_s)
        except ValueError:
            scores[scheme] = float("-inf")
    return scores


def run(trials: int = 12, duration_s: float = 12.0, warmup_s: float = 4.0,
        seed: int = 50) -> Table:
    trial_scores = [_trial(seed + i, duration_s, warmup_s) for i in range(trials)]
    summaries = rank_schemes(trial_scores)
    table = Table(
        "Fig. 14: scheme ranking by Kleinrock power (1 = best)",
        ["scheme", "mean_rank", "q1", "median", "q3"],
        note=(f"{trials} randomized WAN trials (bw 5-100 Mbps, RTT 10-200 ms, "
              "buffer 0.5-5 bdp, optional loss/cross traffic). Paper's "
              "common-subset order: Vegas < TACK < CUBIC < BBR."),
    )
    for s in summaries:
        q1, q2, q3 = s.quartiles()
        table.add_row(scheme=s.scheme, mean_rank=s.mean, q1=q1, median=q2, q3=q3)
    return table


if __name__ == "__main__":
    run().show()
