"""Advanced round-trip timing (paper S5.2).

The receiver measures a *relative* one-way delay for every data packet
(``OWD = arrival - departure``; no clock synchronization is needed
because only differences of receiver-side OWDs are compared), smooths
it with an EWMA, and remembers which packet achieved the minimum
smoothed OWD during the current TACK interval.  The TACK then carries
that packet's departure timestamp and its TACK delay
(``delta_t* = tack_send_time - packet_arrival_time``), letting the
sender form one *bias-corrected* RTT sample per interval:

    RTT = tack_arrival - t0* - delta_t*

Both endpoints run minimum filters over tau <= 10 s; the sender-side
filter additionally absorbs ACK-path delivery noise.

The "naive" mode reproduces the legacy sampling of Fig. 6(a): one
sample per TACK, timed against the *oldest* packet the ACK covers
(RFC 6298-style: one measurement per window on the earliest
outstanding segment) and with *no* TACK-delay correction — so the
sample absorbs up to a full ACK interval of receiver hold time, and
RTT_min estimates come out 8-18% high under load ("the higher the
throughput, the larger the biases", paper S4.3).
"""

from __future__ import annotations

from typing import Optional

from repro.cc.windowed_filter import WindowedMinFilter


class OwdSample:
    """Reference packet chosen to represent a TACK interval."""

    __slots__ = ("departure_ts", "arrival_ts", "owd")

    def __init__(self, departure_ts: float, arrival_ts: float, owd: float):
        self.departure_ts = departure_ts
        self.arrival_ts = arrival_ts
        self.owd = owd


class ReceiverOwdTracker:
    """Receiver half of the advanced round-trip timing.

    Call :meth:`on_packet` for every data arrival and
    :meth:`take_reference` when emitting a TACK; the returned sample
    supplies ``echo_departure_ts`` and the base for ``tack_delay``.
    """

    MAX_PER_PACKET_ENTRIES = 120
    """Cap on per-packet delay entries per TACK (S4.3: "the number of
    data packets might be far more than the maximum number of delta-t
    that a TACK is capable to carry")."""

    def __init__(self, ewma_gain: float = 0.25, mode: str = "advanced"):
        if not 0.0 < ewma_gain <= 1.0:
            raise ValueError(f"EWMA gain must be in (0, 1], got {ewma_gain}")
        if mode not in ("advanced", "naive", "per-packet"):
            raise ValueError(f"unknown timing mode: {mode!r}")
        self.ewma_gain = ewma_gain
        self.mode = mode
        self.smoothed_owd: Optional[float] = None
        self._interval_best: Optional[OwdSample] = None
        self._interval_first: Optional[OwdSample] = None
        self._interval_all: list[OwdSample] = []
        self.samples_seen = 0
        self.per_packet_overflow = 0

    # ------------------------------------------------------------------
    def on_packet(self, departure_ts: float, arrival_ts: float) -> float:
        """Fold one data packet's relative OWD; returns the raw OWD."""
        owd = arrival_ts - departure_ts
        self.samples_seen += 1
        if self.smoothed_owd is None:
            self.smoothed_owd = owd
        else:
            self.smoothed_owd += self.ewma_gain * (owd - self.smoothed_owd)
        # Only a packet something keeps gets a sample object: the
        # interval's first (there is no best yet either: the two are
        # reset together), a new best, any in per-packet mode.
        best = self._interval_best
        is_best = best is None or owd < best.owd
        per_packet = self.mode == "per-packet"
        if is_best or per_packet:
            sample = OwdSample(departure_ts, arrival_ts, owd)
            if best is None:
                self._interval_first = sample
            if is_best:
                self._interval_best = sample
            if per_packet:
                if len(self._interval_all) < self.MAX_PER_PACKET_ENTRIES:
                    self._interval_all.append(sample)
                else:
                    self.per_packet_overflow += 1
        return owd

    def take_reference(self) -> Optional[OwdSample]:
        """Pick the interval's reference packet and reset the interval.

        Advanced mode returns the min-OWD packet; naive mode returns
        the interval's *first* packet (the legacy one-sample-per-window
        measurement on the oldest covered segment).
        """
        if self.mode == "naive":
            ref = self._interval_first
        else:
            ref = self._interval_best
        self._interval_best = None
        self._interval_first = None
        return ref

    def take_all_samples(self, now: float) -> list[tuple[float, float]]:
        """Per-packet mode: drain (departure_ts, delay) entries for the
        TACK, where delay is the receiver hold time of each packet."""
        entries = [(s.departure_ts, now - s.arrival_ts)
                   for s in self._interval_all]
        self._interval_all = []
        return entries


class SenderRttMinEstimator:
    """Sender half: turns echoed references into RTT_min.

    ``on_tack`` computes one RTT sample per feedback and runs it
    through a windowed minimum filter (tau <= 10 s, handles route
    changes).  An initial sample from the handshake seeds the filter;
    ``filter.value`` is the estimate (``None`` before any sample).
    """

    def __init__(self, window_s: float = 10.0):
        self.filter = WindowedMinFilter(window=window_s)
        self.last_sample: Optional[float] = None
        self.samples = 0

    def on_handshake(self, rtt: float, now: float) -> None:
        if rtt > 0:
            self.filter.update(rtt, now)
            self.last_sample = rtt
            self.samples += 1

    def on_tack(
        self,
        tack_arrival_ts: float,
        echo_departure_ts: Optional[float],
        tack_delay: Optional[float],
    ) -> Optional[float]:
        """Form an RTT sample from a TACK's timing fields.

        Returns the sample, or ``None`` when the TACK carried no
        timing reference (e.g. a pure window-update IACK).
        """
        if echo_departure_ts is None:
            return None
        delay = tack_delay or 0.0
        rtt = tack_arrival_ts - echo_departure_ts - delay
        if rtt <= 0:
            return None
        self.filter.update(rtt, tack_arrival_ts)
        self.last_sample = rtt
        self.samples += 1
        return rtt

    def rtt_min(self, default: float = 0.1) -> float:
        value = self.filter.value
        return value if value is not None else default

    @property
    def has_estimate(self) -> bool:
        return self.filter.value is not None
