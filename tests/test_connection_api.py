"""API-surface tests: Connection, configs, and convenience wrappers."""

import pytest

from repro.ack import DelayedAck
from repro.cc import NewReno
from repro.netsim.packet import MSS
from repro.netsim.paths import wired_path
from repro.transport.connection import Connection, ConnectionConfig

from conftest import build_wired_connection


class TestConnectionConfig:
    def test_defaults(self):
        cfg = ConnectionConfig()
        assert cfg.mss == MSS
        assert not cfg.receiver_driven
        assert cfg.auto_drain

    def test_unknown_timing_mode_rejected(self, sim):
        config = ConnectionConfig(timing_mode="advnaced")
        with pytest.raises(ValueError, match="unknown timing mode"):
            Connection(sim, NewReno(), DelayedAck(), config)

    def test_wire_after_construction(self, sim):
        path = wired_path(sim, 10e6, 0.02)
        conn = Connection(sim, NewReno(), DelayedAck())
        conn.wire(path.forward, path.reverse)
        conn.start_transfer(10 * MSS)
        sim.run(until=2.0)
        assert conn.completed

    def test_wire_at_construction(self, sim):
        path = wired_path(sim, 10e6, 0.02)
        conn = Connection(sim, NewReno(), DelayedAck(),
                          forward_port=path.forward,
                          reverse_port=path.reverse)
        conn.start_transfer(10 * MSS)
        sim.run(until=2.0)
        assert conn.completed

    def test_goodput_zero_before_start(self, sim):
        conn = Connection(sim, NewReno(), DelayedAck())
        assert conn.goodput_bps() == 0.0

    def test_close_cancels_timers(self, sim):
        path = wired_path(sim, 10e6, 0.02)
        conn = Connection(sim, NewReno(), DelayedAck(),
                          forward_port=path.forward,
                          reverse_port=path.reverse)
        conn.start_bulk()
        sim.run(until=0.5)
        conn.close()
        before = sim.now()
        sim.run(until=before + 5.0)
        # After close the sender must not keep transmitting.
        sent_at_close = conn.sender.stats.data_packets_sent
        sim.run(until=before + 6.0)
        assert conn.sender.stats.data_packets_sent == sent_at_close


class TestWriteApi:
    def test_incremental_writes(self, sim):
        path = wired_path(sim, 10e6, 0.02)
        conn = Connection(sim, NewReno(), DelayedAck(),
                          forward_port=path.forward,
                          reverse_port=path.reverse)
        conn.sender.start()
        for _ in range(5):
            conn.sender.write(2 * MSS)
        sim.run(until=2.0)
        assert conn.receiver.stats.bytes_delivered == 10 * MSS

    def test_negative_write_rejected(self, sim):
        conn = Connection(sim, NewReno(), DelayedAck())
        with pytest.raises(ValueError):
            conn.sender.write(-1)

    def test_writes_after_start_extend_transfer(self, sim):
        path = wired_path(sim, 10e6, 0.02)
        conn = Connection(sim, NewReno(), DelayedAck(),
                          forward_port=path.forward,
                          reverse_port=path.reverse)
        conn.start_transfer(5 * MSS)
        sim.run(until=1.0)
        assert conn.completed
        conn.sender.completed_at = None
        conn.sender.write(5 * MSS)
        sim.run(until=3.0)
        assert conn.receiver.stats.bytes_delivered == 10 * MSS


class TestConnectionSummary:
    def test_summary_fields(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=10e6,
                                         rtt_s=0.02)
        conn.start_transfer(50 * 1500)
        sim.run(until=3.0)
        s = conn.summary()
        assert s["completed"] is True
        assert s["bytes_delivered"] == 50 * 1500
        assert s["acks_by_kind"]["tack"] > 0
        assert s["acks_by_kind"]["ack"] == 0
        assert 0 < s["ack_per_data"] < 1
        assert s["rtt_min_s"] == pytest.approx(0.02, rel=0.5)

    def test_summary_before_start(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-bbr")
        s = conn.summary()
        assert s["bytes_delivered"] == 0
        assert s["completed"] is False
        assert s["ack_per_data"] == 0.0
