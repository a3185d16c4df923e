"""BBR congestion control (v1, simplified).

The state machine follows Cardwell et al. [17]: STARTUP discovers the
bottleneck bandwidth with gain 2.885, DRAIN removes the queue it
built, PROBE_BW cycles pacing gains ``[1.25, 0.75, 1 x6]`` around the
estimate, and PROBE_RTT periodically shrinks the window to refresh
RTT_min.  The bottleneck-bandwidth estimate is a windowed max of
delivery-rate samples (theta_filter ~= 10 RTTs, paper S5.3/S5.4).

The same class serves both paradigms from the paper:

* legacy TCP BBR -- the *sender* computes delivery-rate samples from
  ACK arrivals and feeds them in;
* TACK co-designed BBR -- the *receiver* computes delivery rate per
  TACK interval and syncs it in the TACK; the sender passes the
  reported value straight through.

Either way the controller only sees ``RateSample.delivery_rate_bps``.
"""

from __future__ import annotations

from repro.cc.base import CongestionController, RateSample
from repro.cc.windowed_filter import WindowedMaxFilter, WindowedMinFilter
from repro.netsim.packet import MSS

STARTUP = "startup"
DRAIN = "drain"
PROBE_BW = "probe_bw"
PROBE_RTT = "probe_rtt"

_STARTUP_GAIN = 2.885
_DRAIN_GAIN = 1.0 / _STARTUP_GAIN
_CWND_GAIN = 2.0
_PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
_PROBE_RTT_DURATION = 0.2
_MIN_RTT_WINDOW = 10.0


class BBR(CongestionController):
    """Rate-based controller driven by bandwidth and RTT_min estimates."""

    name = "bbr"

    def __init__(
        self,
        mss: int = MSS,
        initial_rtt_s: float = 0.1,
        bw_window_rtts: float = 10.0,
        min_rtt_window: float = _MIN_RTT_WINDOW,
        initial_cwnd_mss: int = 10,
        aggregation_compensation: bool = True,
    ):
        super().__init__(mss)
        self.aggregation_compensation = aggregation_compensation
        self.state = STARTUP
        self._min_rtt = WindowedMinFilter(window=min_rtt_window)
        self._initial_rtt_s = initial_rtt_s
        self.bw_window_rtts = bw_window_rtts
        self._btl_bw = WindowedMaxFilter(window=bw_window_rtts * initial_rtt_s)
        self._pacing_gain = _STARTUP_GAIN
        self._cwnd_gain = _STARTUP_GAIN
        self._cwnd = initial_cwnd_mss * mss
        # STARTUP full-pipe detection
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self.filled_pipe = False
        # round/cycle bookkeeping (time-approximated rounds)
        self._round_start = 0.0
        self._cycle_index = 0
        self._cycle_start = 0.0
        # PROBE_RTT bookkeeping
        self._min_rtt_stamp = 0.0
        self._probe_rtt_done_at: float = -1.0
        self._in_flight = 0
        # Aggregation compensation (BBR IETF-101 update, paper ref
        # [18]): wireless links deliver ACK credit in A-MPDU bursts, so
        # cwnd gets a bonus equal to the windowed-max "extra acked"
        # (bytes acked beyond bw * elapsed) or utilization collapses.
        self._extra_acked = WindowedMaxFilter(window=bw_window_rtts * initial_rtt_s)
        self._ack_epoch_start: float = -1.0
        self._ack_epoch_acked = 0

    # ------------------------------------------------------------------
    # estimates
    # ------------------------------------------------------------------
    def bw_estimate(self) -> float:
        """Bottleneck bandwidth estimate in bits/s."""
        # Inlined in on_feedback and pacing_rate_bps; checked by
        # test_bbr_cycle_details.py TestWindowOracle, TestPacingRateOracle.
        bw = self._btl_bw.value
        if bw is None or bw <= 0:
            # Nothing measured yet: derive from initial cwnd / rtt.
            return self._cwnd * 8.0 / self.min_rtt()
        return bw

    def min_rtt(self) -> float:
        # Inlined in on_feedback; checked by TestWindowOracle.
        value = self._min_rtt.value
        return value if value is not None else self._initial_rtt_s

    def _bdp(self, gain: float, bw_bps: float, min_rtt_s: float) -> int:
        # Inlined in on_feedback's window update; checked by
        # TestWindowOracle.
        return max(int(gain * bw_bps * min_rtt_s / 8.0), 4 * self.mss)

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def on_feedback(self, sample: RateSample) -> None:
        now = sample.now
        self._in_flight = sample.in_flight
        if sample.rtt is not None and sample.rtt > 0:
            prior = self._min_rtt.value
            self._min_rtt.update(sample.rtt, now)
            if prior is None or sample.rtt <= prior:
                self._min_rtt_stamp = now
        if sample.min_rtt is not None and sample.min_rtt > 0:
            # Externally supplied RTT_min (TACK advanced timing).
            prior = self._min_rtt.value
            self._min_rtt.update(sample.min_rtt, now)
            if prior is None or sample.min_rtt <= prior:
                self._min_rtt_stamp = now
        # Read once per feedback: nothing below changes either filter
        # again (``value`` is the extremum as of the last change).
        min_rtt_s = self._min_rtt.value
        if min_rtt_s is None:
            min_rtt_s = self._initial_rtt_s
        btl_bw = self._btl_bw
        bw_bps = btl_bw.value
        rate = sample.delivery_rate_bps
        if rate is not None and rate > 0:
            if not sample.is_app_limited or rate > (bw_bps or 0.0):
                btl_bw.window = self.bw_window_rtts * min_rtt_s
                btl_bw.update(rate, now)
                prior_bw, bw_bps = bw_bps, btl_bw.value
                # Value-change detection on the windowed max, not
                # clock arithmetic; most updates leave it unchanged.
                if self._tel is not None and bw_bps != prior_bw:
                    self._tel.emit("cc", "bw_filter", self._tel_flow,
                                   bw_bps=bw_bps)
        if bw_bps is None or bw_bps <= 0:
            # Nothing measured yet (see bw_estimate); ``_cwnd`` is
            # still the previous feedback's until the end of the call.
            bw_bps = self._cwnd * 8.0 / min_rtt_s
        if self.aggregation_compensation and sample.newly_acked > 0:
            # Extra-acked credit: bytes acked in this epoch beyond what
            # bw_bps delivers over it.
            if self._ack_epoch_start < 0:
                self._ack_epoch_start = now
                self._ack_epoch_acked = 0
            expected = bw_bps / 8.0 * (now - self._ack_epoch_start)
            self._ack_epoch_acked += sample.newly_acked
            if self._ack_epoch_acked <= expected:
                # Credit stream fell behind the estimate: restart the epoch.
                self._ack_epoch_start = now
                self._ack_epoch_acked = 0
            else:
                extra = self._ack_epoch_acked - expected
                if self._cwnd < extra:      # cap per the reference impl
                    extra = self._cwnd
                self._extra_acked.window = self.bw_window_rtts * min_rtt_s
                self._extra_acked.update(extra, now)
        if now - self._round_start >= min_rtt_s:
            self._round_start = now
            if self.state == STARTUP:
                self._check_full_pipe()
        # --- state machine ------------------------------------------
        if self.state == STARTUP and self.filled_pipe:
            self._set_state(DRAIN)
            self._pacing_gain = _DRAIN_GAIN
            self._cwnd_gain = _CWND_GAIN
        if (self.state == DRAIN
                and self._in_flight <= self._bdp(1.0, bw_bps, min_rtt_s)):
            self._enter_probe_bw(now)
        if self.state == PROBE_BW:
            if now - self._cycle_start >= min_rtt_s:
                self._cycle_index = (self._cycle_index + 1) % len(_PROBE_BW_GAINS)
                self._cycle_start = now
                self._pacing_gain = _PROBE_BW_GAINS[self._cycle_index]
            if now - self._min_rtt_stamp > self._min_rtt.window:
                self._set_state(PROBE_RTT)
                self._pacing_gain = 1.0
                self._probe_rtt_done_at = now + max(_PROBE_RTT_DURATION,
                                                    min_rtt_s)
        if self.state == PROBE_RTT and now >= self._probe_rtt_done_at:
            self._min_rtt_stamp = now
            if self.filled_pipe:
                self._enter_probe_bw(now)
            else:
                self._set_state(STARTUP)
                self._pacing_gain = _STARTUP_GAIN
                self._cwnd_gain = _STARTUP_GAIN
        if self.state == PROBE_RTT:
            self._cwnd = 4 * self.mss
        else:
            # _bdp(cwnd_gain), in place
            cwnd = int(self._cwnd_gain * bw_bps * min_rtt_s / 8.0)
            if cwnd < 4 * self.mss:
                cwnd = 4 * self.mss
            if self.aggregation_compensation:
                extra = self._extra_acked.value
                if extra is not None:
                    cwnd += int(extra)
            self._cwnd = cwnd

    def extra_acked_bytes(self) -> int:
        value = self._extra_acked.value
        return int(value) if value is not None else 0

    def _check_full_pipe(self) -> None:
        bw = self._btl_bw.value or 0.0
        if bw > self._full_bw * 1.25:
            self._full_bw = bw
            self._full_bw_rounds = 0
        else:
            self._full_bw_rounds += 1
            if self._full_bw_rounds >= 3:
                self.filled_pipe = True

    def _set_state(self, state: str) -> None:
        """State transition routed through one point for the probes."""
        if state == self.state:
            return
        self.state = state
        if self._bus is not None:
            self._bus.emit("cc", "state", self._tel_flow, {
                "state": state, "bw_bps": self.bw_estimate(),
                "min_rtt_s": self.min_rtt()})

    def _enter_probe_bw(self, now: float) -> None:
        self._set_state(PROBE_BW)
        self._cwnd_gain = _CWND_GAIN
        self._cycle_index = 2  # start in a neutral phase
        self._cycle_start = now
        self._pacing_gain = _PROBE_BW_GAINS[self._cycle_index]

    # ------------------------------------------------------------------
    def on_rto(self, now: float) -> None:
        # BBR reacts to timeouts conservatively: restart from a small
        # window but keep the bandwidth estimate.
        self._cwnd = 4 * self.mss

    def cwnd_bytes(self) -> int:
        return int(self._cwnd)

    def pacing_rate_bps(self) -> float:
        bw = self._btl_bw.value         # bw_estimate(), read in place
        if bw is None or bw <= 0:
            bw = self._cwnd * 8.0 / self.min_rtt()
        return self._pacing_gain * bw
