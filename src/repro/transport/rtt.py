"""RTT estimation: RFC 6298 smoothing plus windowed min filters.

Two estimators live here:

* :class:`RttEstimator` -- the classic srtt/rttvar/RTO machinery every
  sender needs for its retransmission timer.
* :class:`MinRttTracker` -- a time-windowed minimum filter (tau_s <= 10 s
  per the paper S5.2) used both for BBR's min_rtt and for TACK's
  RTT_min; the advanced TACK timing feeds it bias-corrected samples
  from :mod:`repro.core.owd_timing`.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.windowed_filter import WindowedMinFilter


class RttEstimator:
    """RFC 6298 smoothed RTT and retransmission timeout."""

    __slots__ = ("initial_rto_s", "min_rto_s", "max_rto_s", "alpha",
                 "beta", "srtt", "rttvar", "latest_sample", "_backoff")

    def __init__(
        self,
        initial_rto_s: float = 1.0,
        min_rto_s: float = 0.2,
        max_rto_s: float = 60.0,
        alpha: float = 1.0 / 8.0,
        beta: float = 1.0 / 4.0,
    ):
        self.initial_rto_s = initial_rto_s
        self.min_rto_s = min_rto_s
        self.max_rto_s = max_rto_s
        self.alpha = alpha
        self.beta = beta
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.latest_sample: Optional[float] = None
        self._backoff = 1.0

    def on_sample(self, rtt: float) -> None:
        """Fold one RTT measurement into the smoothed state."""
        if rtt <= 0:
            return
        self.latest_sample = rtt
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1 - self.beta) * self.rttvar + self.beta * abs(self.srtt - rtt)
            self.srtt = (1 - self.alpha) * self.srtt + self.alpha * rtt
        self._backoff = 1.0

    def rto(self) -> float:
        """Current retransmission timeout with exponential backoff:
        ``min(max(srtt + max(4 rttvar, 1 ms), min_rto) x backoff,
        max_rto)``, written as the comparisons the builtins make."""
        if self.srtt is None:
            base = self.initial_rto_s
        else:
            var = 4.0 * self.rttvar
            base = self.srtt + (1e-3 if var < 1e-3 else var)
        if base < self.min_rto_s:
            base = self.min_rto_s
        rto = base * self._backoff
        return self.max_rto_s if rto > self.max_rto_s else rto

    def back_off(self) -> None:
        """Double the RTO after a timeout (Karn)."""
        self._backoff = min(self._backoff * 2.0, self.max_rto_s / self.min_rto_s)

    def smoothed(self, default: float = 0.1) -> float:
        """srtt, or ``default`` before the first sample."""
        return self.srtt if self.srtt is not None else default


class MinRttTracker:
    """Windowed minimum RTT over ``tau_s`` seconds (route-change safe)."""

    __slots__ = ("_filter",)

    def __init__(self, tau_s: float = 10.0):
        self._filter = WindowedMinFilter(window=tau_s)

    def on_sample(self, rtt: float, now: float) -> None:
        if rtt > 0:
            self._filter.update(rtt, now)

    def get(self, default: float = 0.1) -> float:
        value = self._filter.value
        return value if value is not None else default

    @property
    def has_sample(self) -> bool:
        return self._filter.value is not None
