"""Tests for the TCP-splitting proxy extension (paper S7)."""

from repro.app.split_proxy import SplitTransfer
from repro.netsim.packet import MSS
from repro.netsim.paths import wired_path, wlan_path


def build_split(sim, wan_rate_bps=50e6, wan_rtt_s=0.1, loss=0.0, **kwargs):
    wan = wired_path(sim, wan_rate_bps, wan_rtt_s, data_loss=loss, ack_loss=loss)
    wlan = wlan_path(sim, "802.11g", extra_rtt_s=0.004)
    return SplitTransfer(sim, wan, wlan, wan_rtt_hint=wan_rtt_s,
                         wlan_rtt_hint=0.01, **kwargs)


class TestSplitTransfer:
    def test_fixed_transfer_reaches_client(self, sim):
        split = build_split(sim)
        split.start_transfer(200 * MSS)
        sim.run(until=15.0)
        assert split.completed
        assert split.delivered_bytes == 200 * MSS

    def test_bulk_flows_end_to_end(self, sim):
        split = build_split(sim)
        split.start_bulk()
        sim.run(until=8.0)
        # The 802.11g last hop (~24 Mbps) is the bottleneck.
        goodput = split.delivered_bytes * 8 / 8.0
        assert goodput > 10e6

    def test_backpressure_bounds_proxy_memory(self, sim):
        """A fast WAN into a slow WLAN must not accumulate unbounded
        proxy state."""
        split = build_split(sim, wan_rate_bps=200e6, wan_rtt_s=0.02)
        split.start_bulk()
        sim.run(until=8.0)
        held = (split.wlan_conn.sender.pending_bytes
                + split.wan_conn.receiver.buffered_bytes())
        assert held <= 2 * split.proxy_buffer_bytes

    def test_reliability_gap_exists_for_bulk(self, sim):
        """The server's cum-ack runs ahead of client delivery — the
        semantic cost of splitting the connection."""
        split = build_split(sim, wan_rate_bps=200e6, wan_rtt_s=0.02)
        split.start_bulk()
        sim.run(until=5.0)
        assert split.proxy_held_bytes > 0

    def test_survives_wan_loss(self, sim):
        split = build_split(sim, loss=0.02)
        split.start_transfer(150 * MSS)
        sim.run(until=30.0)
        assert split.completed

    def test_total_acks_counts_both_segments(self, sim):
        split = build_split(sim)
        split.start_transfer(50 * MSS)
        sim.run(until=10.0)
        assert split.total_acks() == (split.wan_conn.ack_count()
                                      + split.wlan_conn.ack_count())
        assert split.total_acks() > 0


def test_split_row_counts_the_window_after_warmup():
    """``ext_tcp_splitting``'s split row is the client's in-order
    delivery over ``[warmup_s, duration_s]``, the window of the
    end-to-end rows, not over the whole run."""
    from repro.experiments.ext_tcp_splitting import _split
    from repro.netsim.engine import Simulator

    row = _split("802.11g", 50e6, 0.1, 0.01, duration_s=3.0, warmup_s=1.5, seed=3)
    sim = Simulator(seed=3)
    wan = wired_path(sim, 50e6, 0.1, data_loss=0.01, ack_loss=0.01)
    wlan = wlan_path(sim, "802.11g", extra_rtt_s=0.004)
    split = SplitTransfer(sim, wan, wlan, wan_scheme="tcp-bbr",
                          wlan_scheme="tcp-tack", wan_rtt_hint=0.1,
                          wlan_rtt_hint=0.01)
    split.start_bulk()
    sim.run(until=1.5)
    at_warmup = split.delivered_bytes
    sim.run(until=3.0)
    assert 0 < at_warmup < split.delivered_bytes
    assert row["goodput_mbps"] == (split.delivered_bytes - at_warmup) * 8.0 / 1.5 / 1e6
