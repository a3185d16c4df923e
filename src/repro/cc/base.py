"""Congestion controller interface and the per-feedback rate sample."""

from __future__ import annotations

from typing import Optional

from repro.netsim.packet import MSS


class RateSample:
    """What the sender learned from one feedback packet.

    Attributes
    ----------
    now:
        Time the feedback arrived.
    newly_acked:
        Bytes newly cumulatively-or-selectively acknowledged.
    newly_lost:
        Bytes newly declared lost by the loss detector.
    rtt:
        RTT sample from this feedback, if one could be formed.
    delivery_rate_bps:
        Delivery-rate estimate: sender-computed for legacy schemes,
        receiver-reported for TACK (S5.3/S5.4).
    in_flight:
        Bytes outstanding after processing this feedback.
    is_app_limited:
        True when the send rate was limited by the application rather
        than the window; app-limited rate samples must not lower the
        bandwidth estimate.
    min_rtt:
        Sender's current RTT_min estimate.
    """

    __slots__ = (
        "now",
        "newly_acked",
        "newly_lost",
        "rtt",
        "delivery_rate_bps",
        "in_flight",
        "is_app_limited",
        "min_rtt",
    )

    def __init__(
        self,
        now: float,
        newly_acked: int = 0,
        newly_lost: int = 0,
        rtt: Optional[float] = None,
        delivery_rate_bps: Optional[float] = None,
        in_flight: int = 0,
        is_app_limited: bool = False,
        min_rtt: Optional[float] = None,
    ):
        self.now = now
        self.newly_acked = newly_acked
        self.newly_lost = newly_lost
        self.rtt = rtt
        self.delivery_rate_bps = delivery_rate_bps
        self.in_flight = in_flight
        self.is_app_limited = is_app_limited
        self.min_rtt = min_rtt


class CongestionController:
    """Strategy interface consumed by the transport sender.

    The sender calls :meth:`on_feedback` for every arriving ACK-like
    packet, :meth:`on_rto` on retransmission timeout, and reads
    :meth:`cwnd_bytes` / :meth:`pacing_rate_bps` before each
    transmission.  Controllers never talk to the network directly.
    """

    name = "base"

    def __init__(self, mss: int = MSS):
        self.mss = mss
        # probes: attached by the sender (null-guard pattern).  The
        # controller has no simulator reference; bus and collector
        # stamp sim-time themselves, so hooks stay dependency-free.
        self._bus = None
        self._tel = None
        self._tel_flow = 0

    def attach_probes(self, bus, flow_id: int = 0) -> None:
        """Route ``cc``-category events: what the flow doctor consumes
        (``state``) through *bus*, the trace-only rest straight to the
        bus's trace subscriber — ``None`` in a doctor-only run, so
        those sites build nothing."""
        self._bus = bus
        self._tel = bus.trace
        self._tel_flow = flow_id

    def attach_profiler(self, profiler) -> None:
        """Bind the feedback hot path to a ``cc.<name>`` profile span.

        Called by the sender at construction time; re-binding the bound
        method keeps the path branch-free when no profiler is attached.
        """
        if profiler is not None:
            self.on_feedback = profiler.wrap(f"cc.{self.name}",
                                             self.on_feedback)

    def on_feedback(self, sample: RateSample) -> None:
        raise NotImplementedError

    def on_rto(self, now: float) -> None:
        raise NotImplementedError

    def cwnd_bytes(self) -> int:
        """Congestion window in bytes: a pure read of state that only
        :meth:`on_feedback` and :meth:`on_rto` change, so the sender
        reads it once per ``_try_send`` call, not once per packet."""
        raise NotImplementedError

    def pacing_rate_bps(self) -> float:
        """Target send rate; the pacer spaces packets at this rate.

        Window-based controllers derive it as cwnd / srtt (paper S5.3);
        rate-based controllers own it directly.
        """
        raise NotImplementedError
