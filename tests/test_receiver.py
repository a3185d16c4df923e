"""Unit tests for the transport receiver."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ack import PerPacketAck
from repro.netsim.engine import Simulator
from repro.netsim.packet import MSS, Packet, PacketType, make_data_packet
from repro.transport.intervals import IntervalSet
from repro.transport.receiver import TransportReceiver

from unacked_walk_oracle import unacked_walk


class StubPort:
    def __init__(self):
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)
        return True

    def connect(self, sink):
        pass


def make_rx(sim, policy=None, **kwargs):
    rx = TransportReceiver(sim, policy or PerPacketAck(), **kwargs)
    port = StubPort()
    rx.connect(port)
    return rx, port


def data(sim, idx, payload=MSS, pkt_seq=None):
    pkt = make_data_packet(idx * MSS, pkt_seq if pkt_seq is not None else idx + 1,
                           payload_len=payload)
    pkt.sent_at = sim.now()
    return pkt


class TestReassembly:
    def test_in_order_delivery(self, sim):
        rx, _ = make_rx(sim)
        delivered = []
        rx.on_deliver(lambda n, t: delivered.append(n))
        for i in range(3):
            rx.on_packet(data(sim, i))
        assert sum(delivered) == 3 * MSS
        assert rx.stats.bytes_delivered == 3 * MSS

    def test_out_of_order_held_then_released(self, sim):
        rx, _ = make_rx(sim)
        rx.on_packet(data(sim, 0))
        rx.on_packet(data(sim, 2))
        assert rx.stats.bytes_delivered == MSS
        assert rx.holb_blocked_bytes() == MSS
        rx.on_packet(data(sim, 1))
        assert rx.stats.bytes_delivered == 3 * MSS
        assert rx.holb_blocked_bytes() == 0

    def test_duplicate_counted_not_delivered_twice(self, sim):
        rx, _ = make_rx(sim)
        rx.on_packet(data(sim, 0))
        rx.on_packet(data(sim, 0, pkt_seq=99))
        assert rx.stats.duplicate_packets == 1
        assert rx.stats.bytes_delivered == MSS

    def test_peak_buffer_tracked(self, sim):
        rx, _ = make_rx(sim)
        rx.on_packet(data(sim, 5))
        rx.on_packet(data(sim, 6))
        assert rx.stats.peak_buffered_bytes == 2 * MSS


class TestSlowReader:
    def test_awnd_shrinks_without_reads(self, sim):
        rx, _ = make_rx(sim, rcv_buffer_bytes=10 * MSS, auto_drain=False)
        for i in range(4):
            rx.on_packet(data(sim, i))
        assert rx.awnd() == 6 * MSS
        assert rx.available_bytes() == 4 * MSS

    def test_read_restores_window(self, sim):
        rx, _ = make_rx(sim, rcv_buffer_bytes=10 * MSS, auto_drain=False)
        for i in range(4):
            rx.on_packet(data(sim, i))
        assert rx.read(2 * MSS) == 2 * MSS
        assert rx.awnd() == 8 * MSS

    def test_read_limited_to_in_order_data(self, sim):
        rx, _ = make_rx(sim, auto_drain=False)
        rx.on_packet(data(sim, 0))
        rx.on_packet(data(sim, 2))
        assert rx.read(10 * MSS) == MSS


class TestFeedbackConstruction:
    def test_sack_prefers_highest_blocks(self, sim):
        rx, _ = make_rx(sim)
        # holes everywhere: received 1,3,5,7,9
        for i in (1, 3, 5, 7, 9):
            rx.on_packet(data(sim, i))
        fb = rx.build_feedback(max_sack_blocks=2)
        assert fb.sack_blocks == [(7 * MSS, 8 * MSS), (9 * MSS, 10 * MSS)]

    def test_unacked_prefers_lowest_gaps(self, sim):
        rx, _ = make_rx(sim)
        for i in (1, 3, 5):
            rx.on_packet(data(sim, i))
        fb = rx.build_feedback(max_unacked_blocks=2)
        assert fb.unacked_blocks == [(0, MSS), (2 * MSS, 3 * MSS)]

    def test_unacked_walk_starts_at_cum_ack(self, sim, monkeypatch):
        from repro.transport.intervals import IntervalSet
        rx, _ = make_rx(sim)
        for i in (0, 1, 3, 5):
            rx.on_packet(data(sim, i))
        walks = []
        gaps = IntervalSet.gaps
        monkeypatch.setattr(
            IntervalSet, "gaps", lambda ivs, upto, start=0:
            walks.append(start) or gaps(ivs, upto, start))
        fb = rx.build_feedback(max_unacked_blocks=4)
        assert fb.cum_ack == 2 * MSS and walks == [2 * MSS]
        assert fb.unacked_blocks == [(2 * MSS, 3 * MSS), (4 * MSS, 5 * MSS)]

    def test_awnd_in_feedback(self, sim):
        rx, _ = make_rx(sim, rcv_buffer_bytes=8 * MSS, auto_drain=False)
        rx.on_packet(data(sim, 0))
        fb = rx.build_feedback()
        assert fb.awnd == 7 * MSS

    def test_largest_pkt_seq_reported(self, sim):
        rx, _ = make_rx(sim)
        rx.on_packet(data(sim, 0, pkt_seq=41))
        fb = rx.build_feedback()
        assert fb.largest_pkt_seq == 41

    def test_timing_reference_consumed_once(self, sim):
        rx, _ = make_rx(sim)
        rx.on_packet(data(sim, 0))
        fb1 = rx.build_feedback(include_timing=True)
        fb2 = rx.build_feedback(include_timing=True)
        assert fb1.echo_departure_ts is not None
        assert fb2.echo_departure_ts is None

    def test_syn_answered_with_syn_ack(self, sim):
        rx, port = make_rx(sim)
        syn = Packet(PacketType.SYN, size=64)
        syn.sent_at = 0.0
        rx.on_packet(syn)
        assert port.sent[0].kind is PacketType.SYN_ACK

    def test_rtt_min_synced_from_data(self, sim):
        rx, _ = make_rx(sim)
        pkt = data(sim, 0)
        pkt.meta["rtt_min"] = 0.123
        rx.on_packet(pkt)
        assert rx.peer_rtt_min == 0.123


receiver_steps = st.lists(
    st.one_of(
        # a segment arrives: index, length in half segments (so some
        # edges are unaligned)
        st.tuples(st.just("add"), st.integers(0, 40), st.integers(1, 4)),
        # the application reads (slow-reader mode only)
        st.tuples(st.just("read"), st.integers(1, 8)),
        # time passes: gaps age past the settling allowance
        st.tuples(st.just("wait"), st.sampled_from([0.001, 0.01, 0.05])),
        # a feedback is built: unacked budget and settling allowance
        st.tuples(st.just("build"), st.integers(0, 6),
                  st.sampled_from([0.0, 0.005, 0.02])),
    ),
    min_size=1, max_size=60,
)


class TestUnackedWalkOracle:
    """The unacked list is walked again only for a changed buffer;
    every build must still answer what the full walk it replaced
    (``tests/unacked_walk_oracle.py``) answers, and keep the same
    first-seen times."""

    @given(receiver_steps, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_blocks_and_first_seen_match_the_full_walk(self, steps,
                                                       auto_drain):
        sim = Simulator(seed=1, simsan=True)
        rx, _ = make_rx(sim, auto_drain=auto_drain)
        oracle_first_seen: dict[int, float] = {}
        pkt_seq = 0
        for step in steps:
            if step[0] == "add":
                pkt_seq += 1
                pkt = make_data_packet(step[1] * MSS // 2, pkt_seq,
                                       payload_len=step[2] * MSS // 2)
                pkt.sent_at = sim.now()
                rx.on_packet(pkt)
            elif step[0] == "read":
                rx.read(step[1] * MSS // 2)
            elif step[0] == "wait":
                sim.run(until=sim.now() + step[1])
            else:
                _, max_blocks, min_age = step
                fb = rx.build_feedback(max_unacked_blocks=max_blocks,
                                       min_gap_age_s=min_age)
                expected = unacked_walk(rx.intervals, oracle_first_seen,
                                        fb.cum_ack, sim.now(), max_blocks,
                                        min_age)
                assert fb.unacked_blocks == expected
                assert rx._gap_first_seen == oracle_first_seen


class CountingIntervalSet(IntervalSet):
    """An ``IntervalSet`` with its ``gaps`` calls counted."""

    gap_walks = 0

    def gaps(self, upto, start=0):
        self.gap_walks += 1
        return super().gaps(upto, start)


class CountingWrites(dict):
    """``_gap_first_seen`` with its writes and deletions counted."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        dict.__setitem__(self, key, value)

    def setdefault(self, key, default=None):
        self.writes += 1
        return dict.setdefault(self, key, default)

    def __delitem__(self, key):
        self.writes += 1
        dict.__delitem__(self, key)


class TestUnackedWalkCost:
    def test_repeated_tack_on_an_unchanged_buffer_walks_nothing(self):
        # Never sanitized: simsan's gap_cache check re-walks by design.
        sim = Simulator(seed=42, simsan=False)
        rx, _ = make_rx(sim)
        for i in range(1, 101, 2):       # 50 gaps: 0, 2, 4, ..., 98
            rx.on_packet(data(sim, i))
        rx.intervals = CountingIntervalSet(rx.intervals.ranges())
        first = rx.build_feedback(max_unacked_blocks=200, min_gap_age_s=0.01)
        assert first.unacked_blocks == []           # all too young
        assert rx.intervals.gap_walks == 1
        rx._gap_first_seen = CountingWrites(rx._gap_first_seen)
        assert len(rx._gap_first_seen) == 50
        sim.run(until=sim.now() + 0.02)
        for _ in range(5):
            fb = rx.build_feedback(max_unacked_blocks=200,
                                   min_gap_age_s=0.01)
            assert fb.unacked_blocks == [(i * MSS, (i + 1) * MSS)
                                         for i in range(0, 100, 2)]
        assert rx.intervals.gap_walks == 1
        assert rx._gap_first_seen.writes == 0
        # A changed buffer is walked again.
        rx.on_packet(data(sim, 0))
        fb = rx.build_feedback(max_unacked_blocks=3)
        assert fb.unacked_blocks == [(2 * MSS, 3 * MSS), (4 * MSS, 5 * MSS),
                                     (6 * MSS, 7 * MSS)]
        assert rx.intervals.gap_walks == 2


class TestFeedbackWire:
    def test_block_cost_charged(self, sim):
        from repro.transport.feedback import (
            AckFeedback,
            feedback_wire_bytes,
        )
        small = AckFeedback(cum_ack=0, awnd=0)
        assert feedback_wire_bytes(small) == 64
        big = AckFeedback(
            cum_ack=0,
            awnd=0,
            sack_blocks=[(i, i + 1) for i in range(10)],
        )
        assert feedback_wire_bytes(big) == 64 + 7 * 8

    def test_wire_size_capped_at_mtu(self, sim):
        from repro.transport.feedback import (
            AckFeedback,
            feedback_wire_bytes,
        )
        huge = AckFeedback(
            cum_ack=0,
            awnd=0,
            unacked_blocks=[(i, i + 1) for i in range(1000)],
        )
        assert feedback_wire_bytes(huge) == 1518
