"""Receiver-based rate measurement synced via TACK (paper S5.3/S5.4).

The receiver computes the average delivery rate over each TACK
interval (data delivered / time elapsed) and the data-path loss rate;
``bw`` — the input to the TACK frequency Eq. (3) and to the co-designed
BBR — is the windowed max of those per-interval rates
(theta_filter = 5~10 RTTs).  The sender measures the ACK-path loss
rate (rho', S5.4) from gaps in the feedback sequence numbers the
receiver stamps on every acknowledgment.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.windowed_filter import WindowedMaxFilter


class ReceiverRateEstimator:
    """Delivery-rate measurement at the receiver."""

    def __init__(self, bw_filter_window_s: float = 1.0,
                 min_interval_s: float = 2e-3):
        self._bytes_in_interval = 0
        self._interval_start: Optional[float] = None
        self._last_arrival: Optional[float] = None
        self._max_filter = WindowedMaxFilter(window=bw_filter_window_s)
        self.min_interval_s = min_interval_s
        self.last_interval_rate_bps: Optional[float] = None

    def on_data(self, nbytes: int, now: float) -> None:
        if self._interval_start is None:
            self._interval_start = now
        self._last_arrival = now
        self._bytes_in_interval += nbytes

    def close_interval(self, now: float) -> Optional[float]:
        """Finish the current TACK interval; returns its average
        delivery rate (bits/s) or ``None`` for an empty interval.

        The rate is measured over the *arrival span* (first to last
        packet of the interval), not wall-clock: idle gaps of an
        app-limited flow must not dilute the estimate (BBR's rate
        samples have the same property).  Spans shorter than
        ``min_interval_s`` keep accumulating — A-MPDU delivery is
        bursty, and rating a burst over its own microsecond span would
        feed the max filter PHY-rate outliers.
        """
        if self._interval_start is None or self._last_arrival is None:
            return None
        if now - self._interval_start < self.min_interval_s:
            return None
        span = max(self._last_arrival - self._interval_start, self.min_interval_s)
        rate: Optional[float] = None
        if self._bytes_in_interval > 0:
            rate = self._bytes_in_interval * 8.0 / span
            self._max_filter.update(rate, now)
            self.last_interval_rate_bps = rate
        self._interval_start = None
        self._last_arrival = None
        self._bytes_in_interval = 0
        return rate

    def set_filter_window(self, window_s: float) -> None:
        """Retarget theta_filter as RTT_min estimates evolve."""
        if window_s > 0:
            self._max_filter.window = window_s

    def bw_bps(self, now: Optional[float] = None, default: float = 0.0) -> float:
        """Windowed-max delivery rate — the paper's ``bw``."""
        value = self._max_filter.get(now)
        return value if value is not None else default


class AckPathLossEstimator:
    """Sender-side rho' (ACK-path loss) estimate from feedback
    sequence numbers.

    The receiver numbers every feedback packet it emits (one shared
    counter across ACK/TACK/IACK); gaps in the sequence the sender
    observes are feedback that died on the ACK path.  This measures
    rho' (paper S5.4) *exactly* — the earlier design guessed the
    expected TACK count from the negotiated frequency, which
    overestimates badly for app-limited flows (few data packets in
    flight means few TACK triggers, which the guess misread as loss).

    Each time the covered span reaches ``window`` the loss fraction
    over that span folds into ``loss_rate`` with EWMA ``ewma_gain``, so the
    estimate tracks regime changes (a reverse-path blackout lifting)
    within a few windows.  Reordered feedback arriving after its
    window folded is ignored: the slight overestimate decays with the
    next clean window.
    """

    def __init__(self, window: int = 32, ewma_gain: float = 0.5):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if not 0.0 < ewma_gain <= 1.0:
            raise ValueError(f"ewma_gain must be in (0, 1], got {ewma_gain}")
        self.window = window
        self.ewma_gain = ewma_gain
        self._base: Optional[int] = None   # first seq of current window
        self._highest: Optional[int] = None
        self._received = 0
        self.loss_rate = 0.0

    def on_feedback(self, fb_seq: Optional[int]) -> None:
        """Record one arrived feedback packet (any flavor)."""
        if fb_seq is None:  # peer does not number its feedback
            return
        base = self._base
        if base is None:
            self._base = self._highest = fb_seq
            self._received = 1
            return
        if fb_seq < base:  # straggler from a folded window
            return
        self._received += 1
        highest = self._highest
        if highest is None or fb_seq > highest:
            self._highest = highest = fb_seq
        span = highest - base + 1
        if span >= self.window:
            lost = max(0, span - self._received)  # dups can exceed span
            sample = lost / span
            self.loss_rate += self.ewma_gain * (sample - self.loss_rate)
            self._base = self._highest + 1
            self._highest = None
            self._received = 0

    def reset(self) -> None:
        self._base = None
        self._highest = None
        self._received = 0
        self.loss_rate = 0.0
