"""Deeper BBR state-machine behaviors (gain cycle, drain, recovery)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.base import RateSample
from repro.cc.bbr import (
    BBR,
    DRAIN,
    PROBE_BW,
    PROBE_RTT,
    _PROBE_BW_GAINS,
)
from repro.netsim.packet import MSS


def fb(now, acked=MSS, rtt=0.05, rate=50e6, in_flight=10 * MSS,
       app_limited=False):
    return RateSample(now=now, newly_acked=acked, newly_lost=0, rtt=rtt,
                      delivery_rate_bps=rate, in_flight=in_flight,
                      is_app_limited=app_limited)


def drive_to_probe_bw(cc, t0=0.0):
    t = t0
    for _ in range(60):
        t += 0.05
        cc.on_feedback(fb(t, in_flight=2 * MSS))
    assert cc.state == PROBE_BW
    return t


class TestGainCycle:
    def test_cycle_advances_once_per_min_rtt(self):
        cc = BBR(initial_rtt_s=0.05)
        t = drive_to_probe_bw(cc)
        seen_gains = set()
        for _ in range(20):
            t += 0.05
            cc.on_feedback(fb(t))
            seen_gains.add(cc._pacing_gain)
        assert 1.25 in seen_gains
        assert 0.75 in seen_gains
        assert 1.0 in seen_gains

    def test_gain_sequence_matches_spec(self):
        assert _PROBE_BW_GAINS[0] == 1.25
        assert _PROBE_BW_GAINS[1] == 0.75
        assert all(g == 1.0 for g in _PROBE_BW_GAINS[2:])

    def test_mean_cycle_gain_is_unity(self):
        assert sum(_PROBE_BW_GAINS) / len(_PROBE_BW_GAINS) == pytest.approx(1.0)


class TestDrain:
    def test_drain_waits_for_inflight_to_fall(self):
        # bdp at 50 Mbps x 50 ms is ~208 packets; keep in-flight well
        # above it so the startup queue actually needs draining.
        cc = BBR(initial_rtt_s=0.05)
        t = 0.0
        for _ in range(40):
            t += 0.05
            cc.on_feedback(fb(t, in_flight=600 * MSS))
        assert cc.state == DRAIN
        t += 0.05
        cc.on_feedback(fb(t, in_flight=600 * MSS))
        assert cc.state == DRAIN
        # Inflight collapses below bdp: moves on.
        t += 0.05
        cc.on_feedback(fb(t, in_flight=MSS))
        assert cc.state == PROBE_BW

    def test_drain_pacing_gain_below_one(self):
        cc = BBR(initial_rtt_s=0.05)
        t = 0.0
        for _ in range(40):
            t += 0.05
            cc.on_feedback(fb(t, in_flight=600 * MSS))
        assert cc.state == DRAIN
        assert cc._pacing_gain < 1.0

    def test_no_drain_when_pipe_never_overfilled(self):
        """In-flight below bdp at startup exit: drain is a no-op and
        the controller lands straight in PROBE_BW."""
        cc = BBR(initial_rtt_s=0.05)
        t = 0.0
        for _ in range(40):
            t += 0.05
            cc.on_feedback(fb(t, in_flight=100 * MSS))
        assert cc.state == PROBE_BW


class TestProbeRttRecovery:
    def test_exits_probe_rtt_back_to_probe_bw(self):
        cc = BBR(initial_rtt_s=0.05, min_rtt_window=0.5)
        t = drive_to_probe_bw(cc)
        # Starve min_rtt updates until PROBE_RTT triggers.
        for _ in range(40):
            t += 0.05
            cc.on_feedback(fb(t, rtt=0.2, in_flight=2 * MSS))
            if cc.state == PROBE_RTT:
                break
        assert cc.state == PROBE_RTT
        # Ride through the probe duration.
        for _ in range(20):
            t += 0.05
            cc.on_feedback(fb(t, rtt=0.2, in_flight=2 * MSS))
            if cc.state == PROBE_BW:
                break
        assert cc.state == PROBE_BW

    def test_min_rtt_refreshed_by_probe(self):
        cc = BBR(initial_rtt_s=0.05, min_rtt_window=0.5)
        t = drive_to_probe_bw(cc)
        for _ in range(60):
            t += 0.05
            cc.on_feedback(fb(t, rtt=0.08, in_flight=2 * MSS))
        # After window expiry of the old 0.05 min, the estimate follows
        # the live 0.08 samples.
        assert cc.min_rtt() == pytest.approx(0.08, rel=0.05)


class TestBandwidthWindow:
    def test_stale_peak_expires(self):
        cc = BBR(initial_rtt_s=0.05, bw_window_rtts=2.0)
        cc.on_feedback(fb(0.05, rate=100e6))
        # Feed lower rates past the 2-RTT window.
        t = 0.05
        for _ in range(20):
            t += 0.05
            cc.on_feedback(fb(t, rate=30e6))
        assert cc.bw_estimate() == pytest.approx(30e6)


class TestPacingRateOracle:
    """``pacing_rate_bps()`` reads the bandwidth filter in place; it
    must equal ``pacing gain x bw_estimate()`` to the last bit."""

    @settings(max_examples=400, deadline=None)
    @given(bw=st.one_of(st.none(), st.just(0.0), st.floats(-1e9, 1e10)),
           min_rtt=st.one_of(st.none(), st.floats(1e-6, 10.0)),
           cwnd=st.one_of(st.integers(4 * MSS, 1 << 30),
                          st.floats(4.0 * MSS, 1e9)),
           gain=st.sampled_from(sorted({2.885, 1 / 2.885, 1.0,
                                        *_PROBE_BW_GAINS})))
    def test_bit_identical_to_gain_times_bw_estimate(self, bw, min_rtt,
                                                     cwnd, gain):
        cc = BBR(initial_rtt_s=0.04)
        cc._btl_bw.value, cc._min_rtt.value = bw, min_rtt
        cc._cwnd, cc._pacing_gain = cwnd, gain
        expected = cc._pacing_gain * cc.bw_estimate()
        assert struct.pack("<d", cc.pacing_rate_bps()) == struct.pack(
            "<d", expected)

    def test_along_a_flow(self):
        cc = BBR()
        t = drive_to_probe_bw(cc)
        for k in range(40):
            t += 0.013
            cc.on_feedback(fb(t, rate=40e6 + k * 1e5))
            assert cc.pacing_rate_bps() == cc._pacing_gain * cc.bw_estimate()


class TestWindowOracle:
    """``on_feedback`` reads both filters in place and computes the
    window inline; outside PROBE_RTT the window must equal
    ``_bdp(cwnd_gain, bw_estimate(), min_rtt())`` plus the aggregation
    credit, to the byte, after every feedback."""

    @settings(max_examples=300, deadline=None)
    @given(compensate=st.booleans(),
           samples=st.lists(st.tuples(
               st.floats(0.0, 0.2),                                # dt
               st.one_of(st.none(), st.floats(1e-3, 0.5)),         # rtt
               st.one_of(st.none(), st.floats(1e-3, 0.5)),         # min_rtt
               st.one_of(st.none(), st.just(0.0),
                         st.floats(1e5, 1e9)),                     # rate
               st.integers(0, 64 * MSS),                           # acked
               st.integers(0, 600 * MSS),                          # in flight
               st.booleans()),                                     # app-limited
               min_size=1, max_size=80))
    def test_window_equals_bdp_of_the_helpers(self, compensate, samples):
        cc = BBR(initial_rtt_s=0.04, min_rtt_window=0.5,
                 aggregation_compensation=compensate)
        t = 0.0
        for dt, rtt, min_rtt, rate, acked, in_flight, limited in samples:
            t += dt
            prior_cwnd = cc._cwnd
            cc.on_feedback(RateSample(
                now=t, newly_acked=acked, rtt=rtt, delivery_rate_bps=rate,
                in_flight=in_flight, is_app_limited=limited, min_rtt=min_rtt))
            if cc.state == PROBE_RTT:
                assert cc._cwnd == 4 * MSS
                continue
            cwnd = cc._cwnd
            # With no bandwidth measured yet, the inline fallback reads
            # the window as it stood before this feedback.
            cc._cwnd = prior_cwnd
            bw = cc.bw_estimate()
            cc._cwnd = cwnd
            assert cwnd == (cc._bdp(cc._cwnd_gain, bw, cc.min_rtt())
                            + cc.extra_acked_bytes())
