"""Unit tests for the pacer, RACK state, and RTT estimators."""

import pytest

from repro.cc.pacing import Pacer
from repro.cc.rack import RackState
from repro.transport.rtt import MinRttTracker, RttEstimator


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
        r.on_delivered(send_time=1.0)
        assert not r.is_lost(send_time=2.0, srtt=0.1, now=10.0)

    def test_lost_after_reordering_window(self):
        r = RackState()
        r.on_delivered(send_time=1.0)
        srtt = 0.1
        deadline = 0.5 + srtt + r.reo_wnd(srtt)
        assert not r.is_lost(send_time=0.5, srtt=srtt, now=deadline - 1e-6)
        assert r.is_lost(send_time=0.5, srtt=srtt, now=deadline)

    def test_latest_delivery_monotone(self):
        r = RackState()
        r.on_delivered(3.0)
        r.on_delivered(1.0)  # stale, ignored
        assert r.latest_delivered_send_time == pytest.approx(3.0)


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
