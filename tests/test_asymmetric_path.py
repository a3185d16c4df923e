"""Tests for asymmetric-path support and the ACK-congestion behavior."""

import pytest

from repro.netsim.emulator import EmulatedPath, PathConfig
from repro.netsim.packet import MSS, make_ack_packet

from conftest import run_bulk


class TestAsymmetricConfig:
    def test_reverse_rate_applies(self, sim):
        path = EmulatedPath(
            sim, PathConfig(100e6, 0.0, reverse_rate_bps=1e6)
        )
        times = []
        path.connect(lambda p: None, lambda p: times.append(sim.now()))
        for _ in range(10):
            path.reverse.send(make_ack_packet())
        sim.run()
        # 64 B at 1 Mbps = 0.512 ms apart.
        spacing = times[1] - times[0]
        assert spacing == pytest.approx(64 * 8 / 1e6)

    def test_defaults_stay_symmetric(self, sim):
        path = EmulatedPath(sim, PathConfig(100e6, 0.0))
        assert path.reverse.config.rate_bps == 100e6

    def test_reverse_queue_override(self, sim):
        path = EmulatedPath(
            sim,
            PathConfig(100e6, 0.0, queue_bytes=1_000_000,
                       reverse_rate_bps=1e6, reverse_queue_bytes=5_000),
        )
        assert path.reverse.queue.capacity_bytes == 5_000
        assert path.forward.queue.capacity_bytes == 1_000_000


class TestAckCongestion:
    def _goodput(self, scheme, up_bps):
        from repro.core.flavors import make_connection
        from repro.netsim.engine import Simulator

        sim = Simulator(seed=13)
        wan = EmulatedPath(
            sim,
            PathConfig(50e6, 0.04, queue_bytes=int(50e6 * 0.04 / 8),
                       reverse_rate_bps=up_bps, reverse_queue_bytes=16_000),
        )
        conn = make_connection(sim, scheme, initial_rtt_s=0.04)
        conn.wire(wan.forward, wan.reverse)
        run_bulk(sim, conn, 8.0)
        return conn.receiver.stats.bytes_delivered * 8 / 8.0

    def test_legacy_throttled_by_thin_uplink(self):
        fat = self._goodput("tcp-bbr", 10e6)
        thin = self._goodput("tcp-bbr", 0.1e6)
        assert thin < 0.3 * fat

    def test_tack_insensitive_to_thin_uplink(self):
        fat = self._goodput("tcp-tack", 10e6)
        thin = self._goodput("tcp-tack", 0.25e6)
        assert thin > 0.75 * fat

    def test_tack_degrades_gracefully_at_extreme_asymmetry(self):
        """Even at 500:1 down/up, TACK retains most of its goodput
        (legacy TCP collapses, see test above)."""
        fat = self._goodput("tcp-tack", 10e6)
        extreme = self._goodput("tcp-tack", 0.1e6)
        assert extreme > 0.5 * fat

    def test_completion_on_asymmetric_path(self, sim):
        from repro.core.flavors import make_connection

        wan = EmulatedPath(
            sim,
            PathConfig(50e6, 0.04, queue_bytes=250_000,
                       reverse_rate_bps=0.2e6, reverse_queue_bytes=16_000),
        )
        conn = make_connection(sim, "tcp-tack", initial_rtt_s=0.04)
        conn.wire(wan.forward, wan.reverse)
        conn.start_transfer(500 * MSS)
        sim.run(until=20.0)
        assert conn.completed
