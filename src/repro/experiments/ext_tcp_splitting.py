"""Extension experiment: TCP splitting at the AP (paper S7).

Compares three deployments on the hybrid WLAN+WAN topology:

* end-to-end TCP BBR (the legacy baseline);
* end-to-end TCP-TACK (the paper's deployment);
* split: legacy TCP BBR on the WAN segment, TCP-TACK on the WLAN last
  hop, bridged by a proxy at the access point.

The paper leaves "the cost performance of TACK with/without TCP
splitting" as future work; this bench quantifies it on our substrate,
including the reliability gap (bytes acknowledged to the server that
the client has not received) that splitting introduces.
"""

from __future__ import annotations

from repro.app.bulk import BulkFlow
from repro.app.split_proxy import SplitTransfer
from repro.experiments.table import Table
from repro.netsim.engine import Simulator
from repro.netsim.paths import hybrid_path, wired_path, wlan_path


def _end_to_end(scheme: str, phy: str, wan_rate_bps: float, wan_rtt_s: float,
                loss: float, duration_s: float, warmup_s: float,
                seed: int) -> dict:
    sim = Simulator(seed=seed)
    path = hybrid_path(sim, phy, wan_rate_bps=wan_rate_bps, wan_rtt_s=wan_rtt_s,
                       data_loss=loss, ack_loss=loss)
    flow = BulkFlow(sim, path, scheme, initial_rtt_s=wan_rtt_s + 0.005)
    flow.start()
    sim.run(until=duration_s)
    return {
        "goodput_mbps": flow.goodput_bps(start=warmup_s) / 1e6,
        "acks": flow.ack_count(),
        "held_kb": 0.0,
    }


def _split(phy: str, wan_rate_bps: float, wan_rtt_s: float, loss: float,
           duration_s: float, warmup_s: float, seed: int) -> dict:
    sim = Simulator(seed=seed)
    wan = wired_path(sim, wan_rate_bps, wan_rtt_s, data_loss=loss, ack_loss=loss)
    wlan = wlan_path(sim, phy, extra_rtt_s=0.004)
    split = SplitTransfer(sim, wan, wlan, wan_scheme="tcp-bbr",
                          wlan_scheme="tcp-tack",
                          wan_rtt_hint=wan_rtt_s, wlan_rtt_hint=0.01)
    split.start_bulk()
    at_warmup = []      # the end-to-end rows' window: [warmup_s, duration_s]
    sim.call_at(warmup_s, lambda: at_warmup.append(split.delivered_bytes))
    sim.run(until=duration_s)
    return {
        "goodput_mbps": (split.delivered_bytes - at_warmup[0]) * 8.0
        / (duration_s - warmup_s) / 1e6,
        "acks": split.total_acks(),
        "held_kb": split.proxy_held_bytes / 1e3,
    }


def run(phy: str = "802.11g", wan_rate_bps: float = 100e6, wan_rtt_s: float = 0.2,
        loss: float = 0.01, duration_s: float = 10.0, warmup_s: float = 3.0,
        seed: int = 11) -> Table:
    table = Table(
        "Extension (paper S7): TCP splitting at the access point",
        ["deployment", "goodput_mbps", "acks", "proxy_held_kb"],
        note=(f"{phy} last hop, WAN {wan_rate_bps/1e6:.0f} Mbps / "
              f"{wan_rtt_s*1e3:.0f} ms, {loss:.0%} bidirectional loss.  "
              "proxy_held = bytes acked to the server but not yet at "
              "the client (splitting's reliability gap)."),
    )
    for label, runner in (
        ("end-to-end TCP BBR",
         lambda: _end_to_end("tcp-bbr", phy, wan_rate_bps, wan_rtt_s, loss,
                             duration_s, warmup_s, seed)),
        ("end-to-end TCP-TACK",
         lambda: _end_to_end("tcp-tack", phy, wan_rate_bps, wan_rtt_s, loss,
                             duration_s, warmup_s, seed)),
        ("split: BBR (WAN) + TACK (WLAN)",
         lambda: _split(phy, wan_rate_bps, wan_rtt_s, loss,
                        duration_s, warmup_s, seed)),
    ):
        result = runner()
        table.add_row(
            deployment=label,
            goodput_mbps=result["goodput_mbps"],
            acks=result["acks"],
            proxy_held_kb=result["held_kb"],
        )
    return table


if __name__ == "__main__":
    run().show()
