"""Eq. (6) / Appendix A: when must a TACK carry more blocks?

Closed-form thresholds plus a simulation check: at ACK-path loss above
the threshold, TACK-poor (Q = 1) loses utilization versus TACK-rich;
below it they are equivalent.
"""

from __future__ import annotations

from repro.analysis.thresholds import additional_blocks, rich_info_threshold
from repro.app.bulk import BulkFlow
from repro.experiments.table import Table
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path


def run_analytic() -> Table:
    table = Table(
        "Eq. (6): ACK-path loss threshold rho' for carrying rich blocks",
        ["rho_data_%", "bdp_kb", "threshold_%", "dq_at_10%_ackloss"],
        note="Above the threshold a Q=1 TACK cannot cover lost IACKs.",
    )
    for rho_pct, bdp_kb in ((0.5, 250), (1.0, 500), (2.0, 500), (3.0, 2000)):
        rho = rho_pct / 100
        bdp = bdp_kb * 1000
        thr = rich_info_threshold(rho, bdp, q_blocks=1)
        table.add_row(**{
            "rho_data_%": rho_pct,
            "bdp_kb": bdp_kb,
            "threshold_%": 100 * min(thr, 1.0),
            "dq_at_10%_ackloss": additional_blocks(rho, 0.10, bdp, q_blocks=1),
        })
    return table


def run_simulated(rate_bps: float = 20e6, rtt_s: float = 0.2,
                  data_loss: float = 0.01, duration_s: float = 15.0,
                  warmup_s: float = 5.0, seed: int = 7) -> Table:
    bdp = rate_bps * rtt_s / 8
    threshold = rich_info_threshold(data_loss, bdp, q_blocks=1)
    table = Table(
        "Eq. (6) validation: rich-vs-poor utilization around the threshold",
        ["ack_loss_%", "relation", "poor_util_%", "rich_util_%"],
        note=(f"Analytic threshold rho' = {100 * threshold:.2f}% for "
              f"rho = {data_loss:.0%}, bdp = {bdp/1e3:.0f} kB."),
    )
    for ack_loss in (threshold / 4, threshold * 8):
        utils = {}
        for scheme in ("tcp-tack-poor", "tcp-tack"):
            sim = Simulator(seed=seed)
            path = wired_path(sim, rate_bps, rtt_s,
                              queue_bytes=int(bdp),
                              data_loss=data_loss,
                              ack_loss=min(ack_loss, 0.3))
            flow = BulkFlow(sim, path, scheme, initial_rtt_s=rtt_s)
            flow.start()
            utils[scheme] = 100 * flow.arrival_bps(warmup_s, duration_s) / rate_bps
        table.add_row(**{
            "ack_loss_%": 100 * min(ack_loss, 0.3),
            "relation": "below threshold" if ack_loss < threshold else "above threshold",
            "poor_util_%": utils["tcp-tack-poor"],
            "rich_util_%": utils["tcp-tack"],
        })
    return table


def run(**kwargs) -> Table:
    return run_analytic()


if __name__ == "__main__":
    run_analytic().show()
    run_simulated().show()
