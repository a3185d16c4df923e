"""State-growth hygiene: long-running connections must not leak
per-packet bookkeeping."""

import sys

from repro.cc import BBR
from repro.netsim.packet import MSS, Packet, PacketType
from repro.transport.guard import GuardConfig
from repro.transport.sender import TransportSender

from conftest import build_wired_connection


class TestSenderStateBounded:
    def test_records_pruned_after_cum_ack(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=20e6,
                                         rtt_s=0.02)
        conn.start_bulk()
        sim.run(until=10.0)
        sender = conn.sender
        # Acked records are deleted; the dict holds roughly one
        # window's worth, not the whole history.
        sent = sender.stats.data_packets_sent
        assert sent > 5000
        assert len(sender.records) < 2000

    def test_pkt_map_does_not_grow_unbounded(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=20e6,
                                         rtt_s=0.02, data_loss=0.01)
        conn.start_bulk()
        sim.run(until=10.0)
        sender = conn.sender
        # Entries die with their records at cum-ack; the map tracks
        # the window, not total traffic.
        assert sender.stats.data_packets_sent > 5000
        assert len(sender.pkt_map) < 2000

    def test_governor_pruned_on_ack(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=10e6,
                                         rtt_s=0.05, data_loss=0.02)
        conn.start_transfer(500 * MSS)
        sim.run(until=30.0)
        assert conn.completed
        # All retransmitted ranges were eventually acked and removed.
        assert len(conn.sender.governor) == 0

    def test_departure_stamps_bounded_while_feedback_is_withheld(self, sim):
        """No feedback, so no admit ever prunes the guard's stamps: the
        list prunes itself once it has doubled, and so holds at most
        four horizons' worth of departures."""
        window = 0.05
        sender = TransportSender(
            sim, BBR(initial_rtt_s=5.0, initial_cwnd_mss=40_000),
            receiver_driven=True, guard=GuardConfig(echo_window_s=window))
        departures = []

        class Port:
            def send(self, packet):
                if packet.kind is PacketType.DATA:
                    departures.append(packet.sent_at)
                return True

        sender.connect(Port())
        sender.start()
        syn_ack = Packet(PacketType.SYN_ACK, size=64)
        syn_ack.meta["syn_sent_at"] = 0.0   # a 1 s handshake: no RTO
        sim.call_at(1.0, lambda: sender.on_packet(syn_ack))
        sim.run(until=1.0)
        sender.set_unlimited()
        stamps, longest, widest = sender.guard._stamps, 0, 0
        while sim.now() < 1.0 + 10 * window:
            sim.run(until=sim.now() + window / 10)
            live = len({t for t in departures if t >= sim.now() - window})
            longest, widest = max(longest, len(stamps)), max(widest, live)
        assert sender.stats.feedback_received == sender.stats.rtos == 0
        assert len(set(departures)) > 8 * widest > 0
        assert longest <= 4 * widest + 2

    def test_retx_queue_drains(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=10e6,
                                         rtt_s=0.05, data_loss=0.05)
        conn.start_transfer(300 * MSS)
        sim.run(until=60.0)
        assert conn.completed
        assert len(conn.sender.retx_queue) == 0


class TestReceiverStateBounded:
    def test_interval_set_stays_small(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=20e6,
                                         rtt_s=0.02, data_loss=0.01)
        conn.start_bulk()
        sim.run(until=10.0)
        # With auto-drain, consumed ranges are removed; only unfilled
        # holes and the data above them remain.
        assert len(conn.receiver.intervals) < 100

    def test_gap_age_tracking_pruned(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=20e6,
                                         rtt_s=0.02, data_loss=0.02)
        conn.start_bulk()
        sim.run(until=10.0)
        assert len(conn.receiver._gap_first_seen) < 100


class TestPerPacketLedgerBytes:
    """The TACK path's two per-packet ledgers are flat buffers: the
    guard's departure stamps cost 8 bytes each and the receiver's
    PKT.SEQ hole ledger 1 byte per packet number, each plus CPython's
    growth headroom (at most an eighth) and a fixed header."""

    def test_stamps_and_holes_cost_8_bytes_and_1_byte(self, sim):
        """A 20 Mbit/s, 20 ms ``tcp-tack`` flow losing 1 % of its data
        packets, read every half second for 10 s.  At 10 s the guard
        held 16 674 stamps in 140 016 bytes (8.40 per stamp; a list of
        floats held them in 536 808) and the hole ledger 238 holes up
        to PKT.SEQ 16 617 in 17 405 bytes (1.05 per number; a set of
        the holes took 15 072 here, 63 per hole, a cost that grows with
        the loss rate where the byte map's does not)."""
        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=20e6,
                                         rtt_s=0.02, data_loss=0.01)
        conn.start_bulk()
        stamps = conn.sender.guard._stamps
        tracker = conn.receiver.pkt_tracker
        assert stamps.itemsize == 8
        for step in range(1, 21):
            sim.run(until=step * 0.5)
            assert conn.sender.guard._stamps is stamps
            assert sys.getsizeof(stamps) <= 9 * len(stamps) + 128
            assert (sys.getsizeof(tracker._hole_map)
                    <= tracker.largest_seen * 9 // 8 + 128)
        assert len(stamps) > 15_000
        assert tracker.largest_seen > 15_000
        assert tracker.outstanding_holes > 100


class TestEventQueueHygiene:
    def test_no_timer_accumulation(self, sim):
        """Pending events stay bounded during a steady flow (timers are
        rescheduled, not accumulated)."""
        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=20e6,
                                         rtt_s=0.02)
        conn.start_bulk()
        sim.run(until=5.0)
        assert sim.pending() < 500

    def test_quiescent_after_transfer_and_close(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=20e6,
                                         rtt_s=0.02)
        conn.start_transfer(50 * MSS)
        sim.run(until=5.0)
        assert conn.completed
        conn.close()
        sim.run(until=6.0)
        fired_before = sim.events_fired
        sim.run(until=12.0)
        # A closed connection generates no event storm.
        assert sim.events_fired - fired_before < 20
