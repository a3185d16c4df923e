"""Fig. 9: goodput improvement (a) and the ideal goodput trend (b).

(a) TACK-minus-BBR goodput per standard at RTT 10/80/200 ms — the gain
    grows with the PHY rate and is largely insensitive to latency.
(b) the *ideal* goodput of ACK thinning, measured with the UDP tool
    (no transport control loop to disturb): data offered at the UDP
    baseline rate, ACK every L packets; TACK's low periodic rate
    approaches the no-ACK upper bound.
"""

from __future__ import annotations

import math

from repro.app.bulk import BulkFlow
from repro.app.udp_blast import run_contention_trial
from repro.experiments.table import Table
from repro.netsim.engine import Simulator
from repro.netsim.paths import wlan_path
from repro.wlan.phy import get_profile


def run_improvement(rtts=(0.01, 0.08, 0.2), duration_s: float = 5.0,
                    warmup_s: float = 1.5, seed: int = 5,
                    phys=("802.11b", "802.11g", "802.11n", "802.11ac")) -> Table:
    table = Table(
        "Fig. 9(a): goodput improvement Goodput_tack - Goodput_tcp (Mbps)",
        ["link"] + [f"improve@{int(r*1e3)}ms" for r in rtts],
    )
    for phy in phys:
        row = {"link": phy}
        for rtt in rtts:
            vals = {}
            # Receive buffer must exceed the path bdp (Linux autotunes
            # this; 802.11ac at 200 ms RTT has a ~15 MB bdp).
            bdp = get_profile(phy).saturation_goodput_bps() * rtt / 8
            rcv_buffer = max(8 * 1024 * 1024, int(4 * bdp))
            for scheme in ("tcp-tack", "tcp-bbr"):
                sim = Simulator(seed=seed)
                path = wlan_path(sim, phy, extra_rtt_s=rtt)
                flow = BulkFlow(sim, path, scheme, initial_rtt_s=rtt,
                                rcv_buffer_bytes=rcv_buffer)
                flow.start()
                sim.run(until=duration_s)
                vals[scheme] = flow.goodput_bps(start=warmup_s) / 1e6
            row[f"improve@{int(rtt*1e3)}ms"] = vals["tcp-tack"] - vals["tcp-bbr"]
        table.add_row(**row)
    return table


def run_ideal(duration_s: float = 2.0, seed: int = 7,
              rtt_s: float = 0.08) -> Table:
    """Fig. 9(b) over 802.11n: ideal goodput per ACK policy.

    The offered rate is the UDP baseline (saturation), so any goodput
    shortfall is pure ACK overhead — the "positive effect" isolated
    from transport dynamics.  TACK's row uses its Eq. (3) ACK count
    (beta/RTT_min), emulated by the equivalent L.
    """
    phy = get_profile("802.11n")
    baseline = phy.saturation_goodput_bps()
    table = Table(
        "Fig. 9(b): ideal goodput of ACK thinning over 802.11n (Mbps)",
        ["policy", "ideal_goodput_mbps"],
        note=(f"Offered rate = UDP baseline {baseline/1e6:.0f} Mbps; "
              "TACK emulated at its Eq. (3) ACK rate "
              f"(RTT_min {rtt_s*1e3:.0f} ms)."),
    )

    class _HopPort:
        def __init__(self, tx, rx):
            self.tx, self.rx = tx, rx

        def send(self, p):
            return self.tx.send(p)

        def connect(self, sink):
            self.rx.connect(sink)

    def ideal(count_l: int) -> float:
        sim = Simulator(seed=seed)
        handle = wlan_path(sim, "802.11n")
        ap, sta = handle.stations
        result = run_contention_trial(
            sim, _HopPort(ap, sta), _HopPort(sta, ap),
            count_l=count_l, rate_bps=baseline, duration_s=duration_s,
            medium=handle.medium,
        )
        return result.data_throughput_bps / 1e6

    for L in (1, 2, 4, 8, 16):
        table.add_row(policy=f"TCP (L={L})", ideal_goodput_mbps=ideal(L))
    # TACK at beta/RTT_min ACKs per second == one ACK per
    # (pkt_rate * RTT_min / beta) packets.
    pkt_rate = baseline / (1500 * 8)
    tack_l = max(1, math.ceil(pkt_rate * rtt_s / 4.0))
    table.add_row(policy=f"TACK (L=2) ~1:{tack_l}", ideal_goodput_mbps=ideal(tack_l))
    table.add_row(policy="UDP baseline", ideal_goodput_mbps=baseline / 1e6)
    table.add_row(policy="PHY capacity", ideal_goodput_mbps=phy.phy_rate_bps / 1e6)
    return table


def run(**kwargs) -> Table:
    return run_improvement(**kwargs)


if __name__ == "__main__":
    run_improvement().show()
    run_ideal().show()
