"""Unit tests for the TACK core trackers: params, OWD timing, PKT.SEQ
loss detection, rate sync, and the retransmit governor."""

import pytest

from repro.core.loss_detect import PktSeqTracker, RetransmitGovernor
from repro.core.owd_timing import ReceiverOwdTracker, SenderRttMinEstimator
from repro.core.params import TackParams
from repro.core.rate_sync import AckPathLossEstimator, ReceiverRateEstimator
from repro.netsim.packet import MSS


class TestTackParams:
    def test_defaults_match_paper(self):
        p = TackParams()
        assert p.beta == 4.0
        assert p.ack_count_l == 2

    def test_eq3_periodic_regime(self):
        """Large bdp: f = beta / RTT_min."""
        p = TackParams()
        f = p.tack_frequency(bw_bps=100e6, rtt_min_s=0.1)
        assert f == pytest.approx(4.0 / 0.1)

    def test_eq3_byte_counting_regime(self):
        """Small bw: f = bw / (L * MSS)."""
        p = TackParams()
        f = p.tack_frequency(bw_bps=0.5e6, rtt_min_s=0.1)
        assert f == pytest.approx(0.5e6 / (2 * MSS * 8))

    def test_regime_boundary(self):
        p = TackParams()
        assert p.is_periodic_regime(4 * 2 * MSS)
        assert not p.is_periodic_regime(4 * 2 * MSS - 1)

    def test_paper_fig8b_numbers(self):
        """Fig. 8(b): 802.11ac + RTT 10/80/200 ms -> 400/50/20 Hz."""
        p = TackParams()
        bw = 590e6
        assert p.tack_frequency(bw, 0.010) == pytest.approx(400.0)
        assert p.tack_frequency(bw, 0.080) == pytest.approx(50.0)
        assert p.tack_frequency(bw, 0.200) == pytest.approx(20.0)

    def test_paper_fig8b_802_11b(self):
        """Fig. 8(b): 802.11b (7 Mbps) at RTT 10 ms stays byte-counting
        at ~294 Hz, same as TCP delayed ACK."""
        p = TackParams()
        f = p.tack_frequency(7e6, 0.010)
        assert f == pytest.approx(7e6 / (2 * 1500 * 8), rel=0.01)
        assert 280 < f < 300

    def test_validation(self):
        with pytest.raises(ValueError):
            TackParams(beta=0)
        with pytest.raises(ValueError):
            TackParams(ack_count_l=0)
        with pytest.raises(ValueError):
            TackParams(timing_mode="bogus")

    def test_copy_overrides(self):
        p = TackParams()
        q = p.copy(rich=False, beta=2.0)
        assert q.beta == 2.0
        assert not q.rich
        assert p.beta == 4.0


class TestPktSeqTracker:
    def test_in_order_no_events(self):
        t = PktSeqTracker()
        assert all(t.on_packet(i) is None for i in range(1, 10))
        assert t.largest_seen == 9
        assert t.outstanding_holes == 0

    def test_gap_event_identifies_missing_range(self):
        t = PktSeqTracker()
        t.on_packet(1)
        event = t.on_packet(4)
        assert event is not None
        assert event.second_largest == 1
        assert event.largest == 4
        assert event.missing_range() == (2, 3)
        assert event.missing_count == 2

    def test_hole_filled_by_reordered_arrival(self):
        t = PktSeqTracker()
        t.on_packet(1)
        t.on_packet(3)
        assert t.outstanding_holes == 1
        t.on_packet(2)
        assert t.outstanding_holes == 0

    def test_retransmission_loss_detected(self):
        """Paper S5.1 example: retransmissions carry new numbers, so a
        lost retransmission creates a second gap event."""
        t = PktSeqTracker()
        t.on_packet(1)
        ev1 = t.on_packet(3)  # original pkt 2 lost
        assert ev1.missing_range() == (2, 2)
        # Retransmission (pkt_seq 4) also lost; pkt 5 arrives.
        ev2 = t.on_packet(5)
        assert ev2.missing_range() == (4, 4)

    def test_loss_rate(self):
        t = PktSeqTracker()
        for i in (1, 2, 4, 5, 6, 8, 9, 10):
            t.on_packet(i)
        assert t.loss_rate() == pytest.approx(2 / 10)

    def test_first_packet_large_number_no_event(self):
        # largest_seen == 0 guard: the very first arrival never
        # generates a gap (handshake may consume numbers).
        t = PktSeqTracker()
        assert t.on_packet(3) is None


class TestRetransmitGovernor:
    def test_first_retransmit_allowed(self):
        g = RetransmitGovernor()
        assert g.may_retransmit(0, now=1.0, window_s=0.1)

    def test_suppressed_within_srtt(self):
        g = RetransmitGovernor()
        g.on_retransmit(0, now=1.0)
        assert not g.may_retransmit(0, now=1.05, window_s=0.1)
        assert g.may_retransmit(0, now=1.1, window_s=0.1)

    def test_ack_clears_state(self):
        g = RetransmitGovernor()
        g.on_retransmit(0, now=1.0)
        g.on_acked(0)
        assert len(g) == 0
        assert g.may_retransmit(0, now=1.01, window_s=0.1)


class TestReceiverOwdTracker:
    def test_owd_computed_from_timestamps(self):
        t = ReceiverOwdTracker()
        owd = t.on_packet(departure_ts=1.0, arrival_ts=1.05)
        assert owd == pytest.approx(0.05)

    def test_ewma_smooths(self):
        t = ReceiverOwdTracker(ewma_gain=0.5)
        t.on_packet(0.0, 0.1)
        t.on_packet(1.0, 1.2)
        assert t.smoothed_owd == pytest.approx(0.5 * 0.1 + 0.5 * 0.2)

    def test_advanced_mode_picks_min_owd_packet(self):
        t = ReceiverOwdTracker(mode="advanced")
        t.on_packet(0.0, 0.10)   # owd 0.10
        t.on_packet(1.0, 1.04)   # owd 0.04  <- min
        t.on_packet(2.0, 2.08)   # owd 0.08
        ref = t.take_reference()
        assert ref.departure_ts == pytest.approx(1.0)
        assert ref.owd == pytest.approx(0.04)

    def test_naive_mode_picks_first_packet(self):
        # Legacy sampling times the oldest packet covered by the ACK.
        t = ReceiverOwdTracker(mode="naive")
        t.on_packet(0.0, 0.04)
        t.on_packet(1.0, 1.10)
        ref = t.take_reference()
        assert ref.departure_ts == pytest.approx(0.0)

    def test_reference_resets_per_interval(self):
        t = ReceiverOwdTracker()
        t.on_packet(0.0, 0.05)
        assert t.take_reference() is not None
        assert t.take_reference() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ReceiverOwdTracker(ewma_gain=0.0)
        with pytest.raises(ValueError):
            ReceiverOwdTracker(mode="wrong")


class TestSenderRttMinEstimator:
    def test_rtt_sample_corrects_for_tack_delay(self):
        """Paper Fig. 4(b): RTT = t1 - t0 - delta_t."""
        e = SenderRttMinEstimator()
        sample = e.on_tack(tack_arrival_ts=1.0, echo_departure_ts=0.7, tack_delay=0.1)
        assert sample == pytest.approx(0.2)
        assert e.rtt_min() == pytest.approx(0.2)

    def test_min_filter_keeps_smallest(self):
        e = SenderRttMinEstimator()
        e.on_tack(1.0, 0.7, 0.1)    # 0.2
        e.on_tack(2.0, 1.85, 0.0)   # 0.15
        e.on_tack(3.0, 2.5, 0.1)    # 0.4
        assert e.rtt_min() == pytest.approx(0.15)

    def test_handshake_seeds(self):
        e = SenderRttMinEstimator()
        e.on_handshake(0.08, now=0.0)
        assert e.has_estimate
        assert e.rtt_min() == pytest.approx(0.08)

    def test_missing_reference_returns_none(self):
        e = SenderRttMinEstimator()
        assert e.on_tack(1.0, None, None) is None

    def test_negative_sample_rejected(self):
        e = SenderRttMinEstimator()
        assert e.on_tack(1.0, 1.5, 0.0) is None
        assert not e.has_estimate


class TestReceiverRateEstimator:
    def _spread(self, r, total_bytes, start, end, chunks=10):
        """Deliver total_bytes uniformly over [start, end]."""
        step = (end - start) / (chunks - 1)
        for i in range(chunks):
            r.on_data(total_bytes // chunks, start + i * step)

    def test_interval_rate_over_arrival_span(self):
        r = ReceiverRateEstimator()
        self._spread(r, 12_500, 0.0, 0.1)
        rate = r.close_interval(now=0.1)
        assert rate == pytest.approx(1e6, rel=0.01)

    def test_trailing_idle_not_counted(self):
        """An idle tail (app-limited flow) must not dilute the rate."""
        r = ReceiverRateEstimator()
        self._spread(r, 12_500, 0.0, 0.1)
        rate = r.close_interval(now=2.0)  # closed long after last arrival
        assert rate == pytest.approx(1e6, rel=0.01)

    def test_short_interval_accumulates(self):
        r = ReceiverRateEstimator(min_interval_s=0.01)
        r.on_data(1000, now=0.0)
        assert r.close_interval(now=0.001) is None
        r.on_data(1000, now=0.02)
        rate = r.close_interval(now=0.02)
        assert rate == pytest.approx(2000 * 8 / 0.02)

    def test_burst_rate_floored_by_min_interval(self):
        """A same-instant burst is rated over min_interval, not zero."""
        r = ReceiverRateEstimator(min_interval_s=0.002)
        r.on_data(12_000, now=0.0)
        r.on_data(12_000, now=0.0)
        rate = r.close_interval(now=0.01)
        assert rate == pytest.approx(24_000 * 8 / 0.002)

    def test_bw_is_windowed_max(self):
        r = ReceiverRateEstimator()
        self._spread(r, 12_500, 0.0, 0.1)
        r.close_interval(0.1)       # 1 Mbps
        self._spread(r, 125_000, 0.1, 0.2)
        r.close_interval(0.2)       # 10 Mbps
        self._spread(r, 12_500, 0.2, 0.3)
        r.close_interval(0.3)       # 1 Mbps again
        assert r.bw_bps(0.3) == pytest.approx(10e6, rel=0.01)

    def test_empty_interval(self):
        r = ReceiverRateEstimator()
        assert r.close_interval(1.0) is None
        assert r.bw_bps(default=7.0) == 7.0


class TestAckPathLossEstimator:
    def test_no_loss_keeps_estimate_zero(self):
        e = AckPathLossEstimator(window=8)
        for seq in range(100):
            e.on_feedback(seq)
        assert e.loss_rate == 0.0

    def test_gaps_measured_exactly(self):
        # Every other feedback dropped: spans fold at 50% loss and the
        # EWMA converges there.
        e = AckPathLossEstimator(window=8, ewma_gain=1.0)
        for seq in range(0, 64, 2):
            e.on_feedback(seq)
        assert e.loss_rate == pytest.approx(0.5, abs=0.07)

    def test_app_limited_rate_does_not_fake_loss(self):
        # The old expected-count estimator inferred loss from a low
        # feedback *rate*; sequence gaps cannot make that mistake —
        # arrival timing is invisible to the estimator by design.
        e = AckPathLossEstimator(window=8)
        for seq in range(40):  # contiguous, however slowly they came
            e.on_feedback(seq)
        assert e.loss_rate == 0.0

    def test_no_estimate_before_first_window_folds(self):
        e = AckPathLossEstimator(window=100)
        for seq in range(0, 50, 2):
            e.on_feedback(seq)
        assert e.loss_rate == 0.0

    def test_unnumbered_feedback_ignored(self):
        e = AckPathLossEstimator(window=4)
        for _ in range(20):
            e.on_feedback(None)
        assert e.loss_rate == 0.0

    def test_recovers_after_blackout_lifts(self):
        e = AckPathLossEstimator(window=8, ewma_gain=0.5)
        for seq in range(0, 80, 4):  # 75% loss regime
            e.on_feedback(seq)
        assert e.loss_rate > 0.5
        for seq in range(80, 400):   # clean regime
            e.on_feedback(seq)
        assert e.loss_rate < 0.01

    def test_straggler_below_window_base_ignored(self):
        e = AckPathLossEstimator(window=4, ewma_gain=1.0)
        for seq in (0, 1, 2, 3):
            e.on_feedback(seq)
        assert e.loss_rate == 0.0
        e.on_feedback(2)  # reordered duplicate from the folded window
        for seq in (4, 5, 6, 7):
            e.on_feedback(seq)
        assert e.loss_rate == 0.0

    def test_reset_clears_state(self):
        e = AckPathLossEstimator(window=4, ewma_gain=1.0)
        for seq in (0, 3):
            e.on_feedback(seq)
        assert e.loss_rate == pytest.approx(0.5)
        e.reset()
        assert e.loss_rate == 0.0
        for seq in (100, 101, 102, 103):
            e.on_feedback(seq)
        assert e.loss_rate == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AckPathLossEstimator(window=1)
        with pytest.raises(ValueError):
            AckPathLossEstimator(ewma_gain=0.0)
        with pytest.raises(ValueError):
            AckPathLossEstimator(ewma_gain=1.5)
