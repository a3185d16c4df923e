"""Fig. 16 / Appendix B: beta lower bound and buffer requirements.

Analytic side: W_min = beta/(beta-1) * bdp and the ideal bottleneck
buffer W_min - bdp (Eq. 11).  Simulated side: TACK utilization versus
beta on a fixed path with the buffer the formula prescribes for
beta = 4 (0.33 bdp) — beta = 1 degenerates toward stop-and-wait while
beta >= 2 sustains utilization, and beta = 4 adds robustness.
"""

from __future__ import annotations

from repro.analysis.buffer_req import (
    buffer_requirement_bytes,
    min_send_window_bytes,
)
from repro.app.bulk import BulkFlow
from repro.core.params import TackParams
from repro.experiments.table import Table
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path


def run_analytic(bdp_bytes: float = 1_000_000) -> Table:
    table = Table(
        "Appendix B.1: minimum send window and buffer vs beta",
        ["beta", "w_min_bdp", "buffer_bdp"],
        note="W_min = beta/(beta-1) * bdp; buffer = W_min - bdp (Eq. 11).",
    )
    for beta in (2, 3, 4, 8, 16):
        table.add_row(
            beta=beta,
            w_min_bdp=min_send_window_bytes(bdp_bytes, beta) / bdp_bytes,
            buffer_bdp=buffer_requirement_bytes(bdp_bytes, beta) / bdp_bytes,
        )
    return table


def run_simulated(rate_bps: float = 20e6, rtt_s: float = 0.1,
                  duration_s: float = 15.0, warmup_s: float = 5.0,
                  seed: int = 13) -> Table:
    bdp = int(rate_bps * rtt_s / 8)
    table = Table(
        "Appendix B.1 (simulated): TACK utilization vs beta, buffer = 0.5 bdp",
        ["beta", "utilization_%", "acks_per_s"],
        note=("beta = 1 is stop-and-wait-like; the paper's default "
              "beta = 4 balances utilization and robustness."),
    )
    for beta in (1, 2, 4, 8):
        sim = Simulator(seed=seed)
        path = wired_path(sim, rate_bps, rtt_s, queue_bytes=bdp // 2)
        flow = BulkFlow(sim, path, "tcp-tack",
                        params=TackParams(beta=beta), initial_rtt_s=rtt_s)
        flow.start()
        table.add_row(
            beta=beta,
            **{"utilization_%": 100 * flow.arrival_bps(warmup_s, duration_s) / rate_bps},
            acks_per_s=flow.ack_count() / duration_s,
        )
    return table


def run(**kwargs) -> Table:
    return run_simulated(**kwargs)


if __name__ == "__main__":
    run_analytic().show()
    run_simulated().show()
