"""Unit tests for the congestion controllers."""

import pytest

from repro.cc.base import RateSample
from repro.cc.bbr import BBR, DRAIN, PROBE_BW, PROBE_RTT, STARTUP
from repro.cc.cubic import Cubic
from repro.cc.reno import NewReno
from repro.cc.vegas import Vegas
from repro.netsim.packet import MSS


def fb(now, acked=MSS, lost=0, rtt=0.05, rate=None, in_flight=10 * MSS,
       app_limited=False, min_rtt=None):
    return RateSample(
        now=now,
        newly_acked=acked,
        newly_lost=lost,
        rtt=rtt,
        delivery_rate_bps=rate,
        in_flight=in_flight,
        is_app_limited=app_limited,
        min_rtt=min_rtt,
    )


class TestNewReno:
    def test_slow_start_doubles(self):
        cc = NewReno()
        start = cc.cwnd_bytes()
        cc.on_feedback(fb(0.1, acked=start))
        assert cc.cwnd_bytes() == 2 * start

    def test_loss_halves(self):
        cc = NewReno()
        before = cc.cwnd_bytes()
        cc.on_feedback(fb(1.0, acked=0, lost=MSS))
        assert cc.cwnd_bytes() == pytest.approx(before / 2, rel=0.01)

    def test_loss_guard_prevents_double_cut(self):
        cc = NewReno()
        cc.on_feedback(fb(1.0, acked=0, lost=MSS))
        after_first = cc.cwnd_bytes()
        cc.on_feedback(fb(1.001, acked=0, lost=MSS))
        assert cc.cwnd_bytes() == after_first

    def test_congestion_avoidance_linear(self):
        cc = NewReno()
        cc.on_feedback(fb(0.5, acked=0, lost=MSS))  # exit slow start
        w = cc.cwnd_bytes()
        for i in range(40):
            cc.on_feedback(fb(1.0 + i * 0.05, acked=MSS))
        # Growth much slower than slow start (one MSS per window).
        assert cc.cwnd_bytes() < w + 45 * MSS / 4

    def test_rto_collapses_window(self):
        cc = NewReno()
        cc.on_rto(1.0)
        assert cc.cwnd_bytes() == MSS

    def test_pacing_rate_positive(self):
        cc = NewReno()
        cc.on_feedback(fb(0.1))
        assert cc.pacing_rate_bps() > 0


class TestCubic:
    def test_loss_multiplies_by_beta(self):
        cc = Cubic()
        before = cc.cwnd_bytes()
        cc.on_feedback(fb(1.0, acked=0, lost=MSS))
        assert cc.cwnd_bytes() == pytest.approx(before * 0.7, rel=0.01)

    def test_recovers_toward_w_max(self):
        cc = Cubic()
        # grow, lose, then recover
        for i in range(20):
            cc.on_feedback(fb(0.1 + i * 0.02, acked=10 * MSS))
        cwnd_before_loss_bytes = cc.cwnd_bytes()
        cc.on_feedback(fb(1.0, acked=0, lost=MSS))
        for i in range(200):
            cc.on_feedback(fb(1.1 + i * 0.05, acked=10 * MSS))
        assert cc.cwnd_bytes() > 0.9 * cwnd_before_loss_bytes

    def test_rto_resets(self):
        cc = Cubic()
        cc.on_rto(1.0)
        assert cc.cwnd_bytes() == MSS

    def test_fast_convergence_lowers_w_max(self):
        cc = Cubic()
        for i in range(20):
            cc.on_feedback(fb(0.1 + i * 0.02, acked=10 * MSS))
        cc.on_feedback(fb(0.9, acked=0, lost=MSS))
        w_max_1 = cc._w_max
        cc.on_feedback(fb(1.2, acked=0, lost=MSS))
        assert cc._w_max < w_max_1


class TestVegas:
    def test_increases_when_below_alpha(self):
        cc = Vegas()
        cc._ssthresh = 0  # force congestion avoidance
        w = cc.cwnd_bytes()
        # rtt == base rtt -> diff = 0 < alpha -> +1 MSS per RTT
        for i in range(5):
            cc.on_feedback(fb(0.2 * (i + 1), acked=MSS, rtt=0.1))
        assert cc.cwnd_bytes() > w

    def test_decreases_when_queueing(self):
        cc = Vegas(alpha_pkts=1.0, beta_pkts=2.0)
        cc._ssthresh = 0
        cc.on_feedback(fb(0.1, acked=MSS, rtt=0.05))  # base
        w = cc.cwnd_bytes()
        # rtt inflates to 4x base -> diff >> beta -> decrease
        for i in range(10):
            cc.on_feedback(fb(0.5 + 0.3 * i, acked=MSS, rtt=0.2))
        assert cc.cwnd_bytes() < w

    def test_validation(self):
        with pytest.raises(ValueError):
            Vegas(alpha_pkts=4.0, beta_pkts=2.0)


class TestBBR:
    def test_starts_in_startup(self):
        assert BBR().state == STARTUP

    def test_startup_exits_on_bw_plateau(self):
        cc = BBR(initial_rtt_s=0.05)
        t = 0.0
        for _ in range(40):
            t += 0.05
            cc.on_feedback(fb(t, rate=50e6, rtt=0.05, in_flight=50 * MSS))
        assert cc.state in (DRAIN, PROBE_BW)
        assert cc.filled_pipe

    def test_reaches_probe_bw_when_drained(self):
        cc = BBR(initial_rtt_s=0.05)
        t = 0.0
        for _ in range(60):
            t += 0.05
            cc.on_feedback(fb(t, rate=50e6, rtt=0.05, in_flight=2 * MSS))
        assert cc.state == PROBE_BW

    def test_bw_estimate_tracks_max_sample(self):
        cc = BBR(initial_rtt_s=0.05)
        cc.on_feedback(fb(0.05, rate=30e6))
        cc.on_feedback(fb(0.10, rate=50e6))
        cc.on_feedback(fb(0.15, rate=40e6))
        assert cc.bw_estimate() == pytest.approx(50e6)

    def test_app_limited_sample_cannot_lower_estimate(self):
        cc = BBR(initial_rtt_s=0.05)
        cc.on_feedback(fb(0.05, rate=50e6))
        cc.on_feedback(fb(0.10, rate=1e6, app_limited=True))
        assert cc.bw_estimate() == pytest.approx(50e6)

    def test_app_limited_sample_can_raise_estimate(self):
        cc = BBR(initial_rtt_s=0.05)
        cc.on_feedback(fb(0.05, rate=10e6))
        cc.on_feedback(fb(0.10, rate=50e6, app_limited=True))
        assert cc.bw_estimate() == pytest.approx(50e6)

    def test_probe_rtt_entered_when_min_rtt_stale(self):
        cc = BBR(initial_rtt_s=0.05, min_rtt_window=1.0)
        t = 0.0
        # Establish, then feed only larger RTTs past the window.
        cc.on_feedback(fb(0.01, rtt=0.05, rate=50e6))
        for _ in range(100):
            t += 0.05
            cc.on_feedback(fb(t, rtt=0.1, rate=50e6, in_flight=2 * MSS))
            if cc.state == PROBE_RTT:
                break
        assert cc.state == PROBE_RTT
        assert cc.cwnd_bytes() == 4 * MSS

    def test_external_min_rtt_accepted(self):
        cc = BBR(initial_rtt_s=0.5)
        cc.on_feedback(fb(0.1, rate=50e6, rtt=None, min_rtt=0.02))
        assert cc.min_rtt() == pytest.approx(0.02)

    def test_pacing_rate_scales_with_gain(self):
        cc = BBR(initial_rtt_s=0.05)
        cc.on_feedback(fb(0.05, rate=50e6))
        assert cc.pacing_rate_bps() == pytest.approx(2.885 * cc.bw_estimate(), rel=0.01)

    def test_aggregation_compensation_grows_cwnd(self):
        cc = BBR(initial_rtt_s=0.05)
        t = 0.0
        for _ in range(50):
            t += 0.05
            cc.on_feedback(fb(t, rate=50e6, rtt=0.05, in_flight=10 * MSS))
        base = cc._bdp(2.0, cc.bw_estimate(), cc.min_rtt())
        # A large burst of acked bytes in a short span -> extra_acked.
        cc.on_feedback(fb(t + 0.001, acked=40 * MSS, rate=50e6, rtt=0.05))
        assert cc.cwnd_bytes() > base

    def test_no_compensation_when_disabled(self):
        cc = BBR(initial_rtt_s=0.05, aggregation_compensation=False)
        cc.on_feedback(fb(0.05, acked=100 * MSS, rate=50e6))
        assert cc.extra_acked_bytes() == 0

    def test_rto_shrinks_cwnd_keeps_bw(self):
        cc = BBR(initial_rtt_s=0.05)
        cc.on_feedback(fb(0.05, rate=50e6))
        cc.on_rto(0.1)
        assert cc.cwnd_bytes() == 4 * MSS
        assert cc.bw_estimate() == pytest.approx(50e6)
