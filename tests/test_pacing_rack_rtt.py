"""Unit tests for the pacer, RACK state, and RTT estimators."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import NewReno
from repro.cc.pacing import Pacer
from repro.cc.rack import RackState
from repro.netsim.packet import MSS, Packet, PacketType
from repro.transport.feedback import AckFeedback, make_feedback_packet
from repro.transport.rtt import MinRttTracker, RttEstimator
from repro.transport.sender import TransportSender


class StubPort:
    """Swallows the sender's packets."""

    def send(self, packet):
        return True

    def connect(self, sink):
        pass


class TestPacer:
    def test_first_send_allowed_immediately(self):
        p = Pacer(rate_bps=8e6)
        assert p.release_at <= 0.0

    def test_spacing_matches_rate(self):
        p = Pacer(rate_bps=8e6)  # 1000 bytes -> 1 ms
        p.on_sent(1000, 0.0)
        assert p.release_at == pytest.approx(0.001)

    def test_no_burst_after_idle(self):
        p = Pacer(rate_bps=8e6)
        p.on_sent(1000, 0.0)
        # Long idle: the next send is charged from "now", not from the
        # stale credit point.
        p.on_sent(1000, 10.0)
        assert p.release_at == pytest.approx(10.001)

    def test_rate_change(self):
        p = Pacer(rate_bps=8e6)
        p.set_rate(16e6)
        p.on_sent(1000, 0.0)
        assert p.release_at == pytest.approx(0.0005)

    def test_rate_never_exceeded(self):
        p = Pacer(rate_bps=8e6)
        sent_bytes = 0
        now = 0.0
        while now < 1.0:
            if now >= p.release_at:
                p.on_sent(1000, now)
                sent_bytes += 1000
            now = max(p.release_at, now + 1e-6)
        assert sent_bytes * 8 <= 8e6 * 1.01

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Pacer(rate_bps=0)
        p = Pacer(rate_bps=1e6)
        p.set_rate(-5.0)  # ignored, keeps previous
        assert p.rate_bps == 1e6


class TestRack:
    def test_no_loss_before_any_delivery(self):
        r = RackState()
        assert not r.is_lost(send_time=0.0, srtt=0.1, now=10.0)

    def test_packet_sent_after_latest_delivery_not_lost(self):
        r = RackState()
        r.latest_delivered_send_time = 1.0
        assert not r.is_lost(send_time=2.0, srtt=0.1, now=10.0)

    def test_lost_after_reordering_window(self):
        r = RackState()
        r.latest_delivered_send_time = 1.0
        srtt = 0.1
        deadline = 0.5 + srtt + r.reo_wnd(srtt)
        assert not r.is_lost(send_time=0.5, srtt=srtt, now=deadline - 1e-6)
        assert r.is_lost(send_time=0.5, srtt=srtt, now=deadline)

    def test_latest_delivery_monotone(self, sim):
        """The sender only raises RACK's latest delivered send time: a
        cumulative ACK of segments sent before a SACKed one leaves it at
        the SACKed segment's send time."""
        sender = TransportSender(sim, NewReno(initial_cwnd_mss=50))
        sender.connect(StubPort())
        sender.start()
        syn_ack = Packet(PacketType.SYN_ACK, size=64)
        syn_ack.meta["syn_sent_at"] = 0.0
        sim.call_in(0.01, lambda: sender.on_packet(syn_ack))
        sender.set_total(4 * MSS)
        sim.run(until=0.02)     # all four out, no RACK deadline passed
        sent = [sender.records[i * MSS].last_sent for i in range(4)]
        assert sent == sorted(sent) and sent[2] < sent[3]

        def ack(cum_ack, sack_blocks=None):
            fb = AckFeedback(cum_ack, 1 << 30, sack_blocks)
            sender.on_packet(make_feedback_packet(PacketType.ACK, fb))

        ack(0, [(3 * MSS, 4 * MSS)])
        assert sender.rack.latest_delivered_send_time == pytest.approx(sent[3])
        ack(3 * MSS, [(3 * MSS, 4 * MSS)])   # earlier sends, stale
        assert sender.cum_acked == 3 * MSS
        assert sender.rack.latest_delivered_send_time == pytest.approx(sent[3])


class TestRttEstimator:
    def test_first_sample_initializes(self):
        e = RttEstimator()
        e.on_sample(0.1)
        assert e.srtt == pytest.approx(0.1)
        assert e.rttvar == pytest.approx(0.05)

    def test_smoothing(self):
        e = RttEstimator()
        e.on_sample(0.1)
        e.on_sample(0.2)
        assert e.srtt == pytest.approx(0.875 * 0.1 + 0.125 * 0.2)

    def test_rto_floor(self):
        e = RttEstimator(min_rto_s=0.2)
        e.on_sample(0.001)
        assert e.rto() >= 0.2

    def test_backoff_doubles(self):
        e = RttEstimator()
        e.on_sample(0.1)
        base = e.rto()
        e.back_off()
        assert e.rto() == pytest.approx(2 * base)

    def test_sample_resets_backoff(self):
        e = RttEstimator()
        e.on_sample(0.1)
        e.back_off()
        e.on_sample(0.1)
        assert e.rto() < 0.5

    def test_nonpositive_sample_ignored(self):
        e = RttEstimator()
        e.on_sample(-1.0)
        assert e.srtt is None

    def test_smoothed_default(self):
        assert RttEstimator().smoothed(default=0.3) == 0.3


class TestMinRttTracker:
    def test_tracks_minimum(self):
        t = MinRttTracker(tau_s=10.0)
        t.on_sample(0.2, 0.0)
        t.on_sample(0.1, 1.0)
        t.on_sample(0.3, 2.0)
        assert t.get() == pytest.approx(0.1)

    def test_window_expiry(self):
        t = MinRttTracker(tau_s=5.0)
        t.on_sample(0.1, 0.0)
        t.on_sample(0.2, 4.9)
        t.on_sample(0.2, 6.0)
        assert t.get() == pytest.approx(0.2)

    def test_default_until_first_sample(self):
        t = MinRttTracker()
        assert not t.has_sample
        assert t.get(default=0.123) == 0.123


def builtin_rto(e):
    """``RttEstimator.rto()`` as written with the ``min``/``max``
    builtins, the oracle for the comparisons that replaced them."""
    if e.srtt is None:
        base = e.initial_rto_s
    else:
        base = e.srtt + max(4.0 * e.rttvar, 1e-3)
    return min(max(base, e.min_rto_s) * e._backoff, e.max_rto_s)


_SECONDS = st.one_of(
    st.floats(0.0, 120.0),
    st.sampled_from([1e-3, 1e-3 / 4, 0.2, 60.0, 0.2 - 1e-3, 60.0 / 300]))
_BACKOFFS = st.one_of(st.sampled_from([2.0 ** k for k in range(9)] + [300.0]),
                      st.floats(1.0, 300.0))


class TestRtoBuiltinOracle:
    @settings(max_examples=500, deadline=None)
    @given(srtt=st.one_of(st.none(), _SECONDS), rttvar=_SECONDS,
           backoff=_BACKOFFS, initial=_SECONDS,
           bounds=st.sampled_from([(0.2, 60.0), (1e-3, 1e-3), (0.0, 120.0)]))
    def test_rto_is_bit_identical(self, srtt, rttvar, backoff, initial,
                                  bounds):
        e = RttEstimator(initial_rto_s=initial, min_rto_s=bounds[0],
                         max_rto_s=bounds[1])
        e.srtt, e.rttvar, e._backoff = srtt, rttvar, backoff
        expected = builtin_rto(e)
        assert struct.pack("<d", e.rto()) == struct.pack("<d", expected)

    def test_edges_hit_exactly(self):
        e = RttEstimator(initial_rto_s=0.2)
        assert e.rto() == builtin_rto(e) == 0.2         # at min_rto_s
        e._backoff = 300.0
        assert e.rto() == builtin_rto(e) == 60.0        # at max_rto_s
        e.srtt, e.rttvar, e._backoff = 0.3, 1e-3 / 4, 1.0
        assert e.rto() == builtin_rto(e) == 0.3 + 1e-3  # 4 rttvar = 1 ms
