"""Unit tests for the application workloads."""

import pytest

from repro.app.bulk import BulkFlow
from repro.app.cross_traffic import OnOffCrossTraffic
from repro.app.udp_blast import UdpAckResponder, UdpBlaster, run_contention_trial
from repro.app.video import RtpUdpVideoSession, VideoSession
from repro.netsim.packet import DATA_PACKET_SIZE
from repro.netsim.paths import wired_path, wlan_path


class TestUdpBlaster:
    def test_rate_held(self, sim):
        path = wired_path(sim, rate_bps=1e9, rtt_s=0.0)
        got = [0]
        path.forward.connect(lambda p: got.__setitem__(0, got[0] + p.size))
        blaster = UdpBlaster(sim, path.forward, rate_bps=10e6)
        blaster.start()
        sim.run(until=1.0)
        blaster.stop()
        assert got[0] * 8 == pytest.approx(10e6, rel=0.02)

    def test_responder_ack_every_l(self, sim):
        path = wired_path(sim, rate_bps=1e9, rtt_s=0.0)
        responder = UdpAckResponder(sim, path.reverse, count_l=4)
        path.forward.connect(responder.on_packet)
        blaster = UdpBlaster(sim, path.forward, rate_bps=10e6)
        blaster.start()
        sim.run(until=1.0)
        assert responder.acks_sent == responder.packets_received // 4

    def test_contention_trial_over_wlan(self, sim):
        path = wlan_path(sim, "802.11n")
        result = run_contention_trial(
            sim, path.forward, path.reverse, count_l=1,
            rate_bps=50e6, duration_s=0.5, medium=path.medium,
        )
        assert result.data_throughput_bps > 40e6
        assert result.ack_throughput_bps > 0
        assert 0 <= result.collision_rate < 1

    def test_validation(self, sim):
        path = wired_path(sim, 1e6, 0.0)
        with pytest.raises(ValueError):
            UdpBlaster(sim, path.forward, rate_bps=0)
        with pytest.raises(ValueError):
            UdpAckResponder(sim, path.reverse, count_l=0)


class TestBulkFlow:
    def test_bulk_goodput_measured(self, sim):
        path = wired_path(sim, 20e6, 0.02)
        flow = BulkFlow(sim, path, "tcp-tack", initial_rtt_s=0.02)
        flow.start()
        sim.run(until=3.0)
        assert flow.goodput_bps(1.0) > 15e6
        assert flow.ack_count() > 0
        assert 0 < flow.ack_ratio() < 1

    def test_fixed_transfer_completion(self, sim):
        path = wired_path(sim, 20e6, 0.02)
        flow = BulkFlow(sim, path, "tcp-bbr", initial_rtt_s=0.02,
                        total_bytes=150 * 1500)
        flow.start()
        sim.run(until=5.0)
        assert flow.completed
        assert flow.completion_time() is not None


class TestVideo:
    def test_smooth_playback_at_low_bitrate(self, sim):
        path = wlan_path(sim, "802.11n", extra_rtt_s=0.01)
        v = VideoSession(sim, path, "tcp-tack", bitrate_bps=20e6)
        v.start()
        sim.run(until=10.0)
        stats = v.finish()
        assert stats.rebuffering_ratio() < 0.02
        assert stats.frames_played > 250
        assert stats.startup_delay_s is not None

    def test_rebuffering_when_bitrate_exceeds_capacity(self, sim):
        path = wlan_path(sim, "802.11g", extra_rtt_s=0.01)  # ~25 Mbps
        v = VideoSession(sim, path, "tcp-bbr", bitrate_bps=60e6)
        v.start()
        sim.run(until=10.0)
        stats = v.finish()
        assert stats.rebuffering_ratio() > 0.2

    def test_reliable_transport_never_macroblocks(self, sim):
        path = wlan_path(sim, "802.11n", per_mpdu_error_rate=0.02)
        v = VideoSession(sim, path, "tcp-tack", bitrate_bps=20e6)
        v.start()
        sim.run(until=5.0)
        assert v.finish().frames_macroblocked == 0

    def test_rtp_udp_macroblocks_under_loss(self, sim):
        path = wlan_path(sim, "802.11n", per_mpdu_error_rate=0.05)
        v = RtpUdpVideoSession(sim, path, bitrate_bps=100e6)
        v.start()
        sim.run(until=5.0)
        stats = v.finish()
        assert stats.frames_macroblocked > 0
        assert stats.stall_time_s == pytest.approx(0.0)


class TestCrossTraffic:
    def test_on_off_produces_traffic(self, sim):
        path = wired_path(sim, 10e6, 0.02)
        x = OnOffCrossTraffic(sim, path.forward, rate_bps=5e6)
        x.start()
        sim.run(until=5.0)
        assert x.packets_sent > 100

    def test_stop_halts(self, sim):
        path = wired_path(sim, 10e6, 0.02)
        x = OnOffCrossTraffic(sim, path.forward, rate_bps=5e6)
        x.start()
        sim.run(until=1.0)
        x.stop()
        count = x.packets_sent
        sim.run(until=2.0)
        assert x.packets_sent == count

    def test_short_off_periods_keep_one_tick_chain(self, sim):
        # An OFF period shorter than a packet interval used to start a
        # second chain beside the pending tick (8 000+ packets here).
        path = wired_path(sim, 10e6, 0.02)
        x = OnOffCrossTraffic(sim, path.forward, rate_bps=1e6,
                              mean_on_s=0.05, mean_off_s=0.0005)
        x.start()
        sim.run(until=5.0)
        # One chain, always on: a packet at 0 and one per interval of
        # DATA_PACKET_SIZE * 8 / 1e6 = 12.144 ms after, 412 in 5 s.
        assert DATA_PACKET_SIZE == 1518
        assert 300 < x.packets_sent <= 412

    def test_deterministic_given_seed(self):
        from repro.netsim.engine import Simulator
        counts = []
        for _ in range(2):
            s = Simulator(seed=5)
            path = wired_path(s, 10e6, 0.02)
            x = OnOffCrossTraffic(s, path.forward, rate_bps=5e6)
            x.start()
            s.run(until=3.0)
            counts.append(x.packets_sent)
        assert counts[0] == counts[1]
