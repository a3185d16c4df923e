"""End-to-end integration tests: full connections over impaired paths.

Every scheme x impairment combination must deliver the byte stream
completely and in order — the core reliability invariant.
"""

import pytest

from repro.netsim.loss import BurstLoss, GilbertElliottLoss, PatternLoss
from repro.netsim.packet import MSS

from conftest import build_wired_connection

ALL_SCHEMES = [
    "tcp-tack",
    "tcp-tack-poor",
    "tcp-tack-poor-literal",
    "tcp-tack-adaptive",
    "tcp-tack-cubic",
    "tcp-tack-compound",
    "tcp-tack-naive-timing",
    "tcp-tack-perpacket-timing",
    "tcp-bbr",
    "tcp-cubic",
    "tcp-reno",
    "tcp-vegas",
    "tcp-compound",
    "tcp-bbr-perpacket",
    "tcp-bbr-l4",
    "tcp-bbr-l8",
    "tcp-bbr-l16",
]


class TestReliableDelivery:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_fixed_transfer_completes_lossless(self, sim, scheme):
        conn, _ = build_wired_connection(sim, scheme, rate_bps=20e6, rtt_s=0.02)
        conn.start_transfer(300 * MSS)
        sim.run(until=10.0)
        assert conn.completed
        assert conn.receiver.stats.bytes_delivered == 300 * MSS

    @pytest.mark.parametrize("scheme", ["tcp-tack", "tcp-bbr", "tcp-cubic"])
    def test_fixed_transfer_completes_with_loss(self, sim, scheme):
        conn, _ = build_wired_connection(
            sim, scheme, rate_bps=20e6, rtt_s=0.05, data_loss=0.02, ack_loss=0.02
        )
        conn.start_transfer(300 * MSS)
        sim.run(until=30.0)
        assert conn.completed, f"{scheme} did not finish under 2% loss"
        assert conn.receiver.stats.bytes_delivered == 300 * MSS

    @pytest.mark.parametrize("scheme", ["tcp-tack", "tcp-bbr"])
    def test_survives_burst_blackout(self, sim, scheme):
        conn, _ = build_wired_connection(
            sim, scheme, rate_bps=10e6, rtt_s=0.04,
            forward_loss=BurstLoss([(1.0, 0.3)]),
        )
        conn.start_transfer(500 * MSS)
        sim.run(until=30.0)
        assert conn.completed
        assert conn.receiver.stats.bytes_delivered == 500 * MSS

    @pytest.mark.parametrize("scheme", ["tcp-tack", "tcp-bbr"])
    def test_survives_gilbert_elliott(self, sim, scheme):
        conn, _ = build_wired_connection(
            sim, scheme, rate_bps=10e6, rtt_s=0.04,
            forward_loss=GilbertElliottLoss(
                p_gb=0.005, p_bg=0.3, rng=sim.fork_rng("ge")
            ),
        )
        conn.start_transfer(300 * MSS)
        sim.run(until=30.0)
        assert conn.completed

    def test_single_loss_recovers_via_iack_without_rto(self, sim):
        conn, _ = build_wired_connection(
            sim, "tcp-tack", rate_bps=10e6, rtt_s=0.05,
            forward_loss=PatternLoss([20]),
            queue_bytes=3 * 62_500,  # room for the BBR startup overshoot
        )
        conn.start_transfer(100 * MSS)
        sim.run(until=10.0)
        assert conn.completed
        assert conn.sender.stats.rtos == 0
        assert conn.sender.stats.retransmissions <= 2
        assert conn.receiver.stats.iacks_sent >= 1

    def test_tack_ack_path_blackout_recovered_by_rich_tacks(self, sim):
        conn, _ = build_wired_connection(
            sim, "tcp-tack", rate_bps=10e6, rtt_s=0.05,
            data_loss=0.01,
            reverse_loss=BurstLoss([(1.0, 0.5)]),
        )
        conn.start_transfer(400 * MSS)
        sim.run(until=30.0)
        assert conn.completed


class TestByteStreamIntegrity:
    def test_no_gap_ever_delivered(self, sim):
        """Delivered byte count only grows by contiguous amounts."""
        conn, _ = build_wired_connection(
            sim, "tcp-tack", rate_bps=10e6, rtt_s=0.05, data_loss=0.05
        )
        progression = []
        conn.receiver.on_deliver(lambda n, t: progression.append(n))
        conn.start_transfer(200 * MSS)
        sim.run(until=30.0)
        assert conn.completed
        assert sum(progression) == 200 * MSS
        # receiver's cum point equals total: nothing skipped
        assert conn.receiver.delivered_ptr == 200 * MSS


class TestAckEconomy:
    def test_tack_sends_far_fewer_acks_than_delayed(self, sim):
        tack, _ = build_wired_connection(sim, "tcp-tack", rate_bps=50e6, rtt_s=0.08)
        tack.start_bulk()
        sim.run(until=5.0)
        tack_acks = tack.ack_count()
        tack_data = tack.sender.stats.data_packets_sent

        from repro.netsim.engine import Simulator
        sim2 = Simulator(seed=42)
        bbr, _ = build_wired_connection(sim2, "tcp-bbr", rate_bps=50e6, rtt_s=0.08)
        bbr.start_bulk()
        sim2.run(until=5.0)

        assert tack_acks < 0.1 * bbr.ack_count()
        # similar goodput
        assert tack.receiver.stats.bytes_delivered > 0.9 * bbr.receiver.stats.bytes_delivered
        # paper S6.3: acks/data ~ 1.9% for TACK in periodic regime
        assert tack_acks / tack_data < 0.05

    def test_tack_frequency_respects_eq3_bound(self, sim):
        """Periodic regime: TACK count <= beta/RTT_min * duration plus
        slack for IACKs and startup."""
        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=100e6, rtt_s=0.1)
        conn.start_bulk()
        sim.run(until=5.0)
        bound = 4.0 / 0.1 * 5.0
        assert conn.receiver.stats.tacks_sent <= bound * 1.25


class TestFlavors:
    def test_unknown_scheme_rejected(self, sim):
        from repro.core.flavors import make_connection
        with pytest.raises(KeyError):
            make_connection(sim, "tcp-nonsense")

    def test_scheme_composition_tack(self, sim):
        from repro.core.flavors import make_connection
        conn = make_connection(sim, "tcp-tack")
        assert conn.sender.receiver_driven
        assert conn.receiver.policy.name == "tack"

    def test_scheme_composition_legacy(self, sim):
        from repro.core.flavors import make_connection
        conn = make_connection(sim, "tcp-bbr")
        assert not conn.sender.receiver_driven
        assert conn.receiver.policy.name == "delayed"

    def test_tack_poor_q1(self, sim):
        from repro.core.flavors import make_connection
        conn = make_connection(sim, "tcp-tack-poor")
        assert not conn.receiver.policy.params.rich
