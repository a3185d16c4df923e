#!/usr/bin/env python3
"""WAN bulk transfer with bidirectional loss (paper S6.6 / Fig. 5(b)).

Runs a long flow across an emulated 200 ms WAN path with loss on both
the data and ACK directions, and shows why TACK's rich block lists
matter: TACK-poor (Q=1) and legacy SACK-limited TCP degrade as the ACK
path loses feedback, while TACK-rich barely notices.

Run:  python examples/wan_bulk_transfer.py
"""

from repro.app.bulk import BulkFlow
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path

RATE_BPS = 20e6
RTT_S = 0.2
DATA_LOSS = 0.01
DURATION_S = 20.0
WARMUP_S = 5.0


def run(scheme: str, ack_loss: float) -> float:
    sim = Simulator(seed=7)
    path = wired_path(
        sim, RATE_BPS, RTT_S,
        queue_bytes=int(RATE_BPS * RTT_S / 8),
        data_loss=DATA_LOSS, ack_loss=ack_loss,
    )
    flow = BulkFlow(sim, path, scheme, initial_rtt_s=RTT_S)
    flow.start()
    # Counted by first arrival, not by in-order delivery (see arrival_bps).
    return flow.arrival_bps(WARMUP_S, DURATION_S) / RATE_BPS


def main() -> None:
    print(f"Bulk flow, {RATE_BPS/1e6:.0f} Mbps / {RTT_S*1e3:.0f} ms WAN, "
          f"{DATA_LOSS:.0%} data loss, varying ACK loss\n")
    ack_losses = (0.002, 0.01, 0.05, 0.10)
    schemes = ("tcp-tack", "tcp-tack-poor", "tcp-bbr")
    header = "".join(f"{f'{al:.1%} ackloss':>14}" for al in ack_losses)
    print(f"{'scheme':<14}{header}")
    for scheme in schemes:
        cells = "".join(f"{run(scheme, al):>13.1%} " for al in ack_losses)
        print(f"{scheme:<14}{cells}")
    print("\nPaper Fig. 5(b): TACK-rich holds ~91-93% utilization even at"
          "\n10% ACK loss; TACK-poor falls to ~61%; TCP BBR to ~65%.")


if __name__ == "__main__":
    main()
