"""The TACK acknowledgment policy (paper S4/S5).

TACK balances byte-counting and periodic acknowledgment by sending at
the *lower* of the two frequencies (Eq. 3)::

    f_tack = min( bw / (L * MSS),  beta / RTT_min )

implemented as an adaptive timer whose interval is
``max(L * MSS * 8 / bw, RTT_min / beta)``; ``bw`` is the receiver's
windowed-max delivery rate (S5.4) and ``RTT_min`` is synced from the
sender on every data packet.

On top of the periodic TACKs the policy emits **IACKs** for instant
events (S4.4):

* a PKT.SEQ gap (loss event) — carries the pull range so the sender
  retransmits immediately;
* receive-buffer exhaustion or abrupt release — timely window update;
* (RTT_min resync is sender->receiver and rides data-packet headers.)

Each TACK carries cumulative + block feedback ("acked list"/"unacked
list"), the TACK delay and the timing reference for advanced
round-trip timing, the receiver-measured delivery rate, and the
data-path loss rate.  ``rich`` mode repeats as many blocks as fit one
MTU, which is what keeps loss recovery robust under ACK-path loss
(Fig. 5(b)); ``poor`` mode reports only Q blocks.
"""

from __future__ import annotations

from typing import Optional

from typing import TYPE_CHECKING

from repro.ack.base import AckPolicy
from repro.analysis.thresholds import additional_blocks, rich_info_threshold
from repro.core.params import TackParams
from repro.netsim.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle
    # through repro.core.__init__ -> flavors -> repro.ack)
    from repro.core.loss_detect import GapEvent

# Block budget of a rich TACK: one MTU minus the base header,
# eight bytes per block (see repro.transport.feedback).
_RICH_BLOCK_LIMIT = (1500 - 64) // 8


class TackPolicy(AckPolicy):
    """Tame ACK with instant-event IACKs."""

    name = "tack"

    def __init__(self, params: Optional[TackParams] = None):
        super().__init__()
        self.params = params or TackParams()
        self._timer = None
        self._bytes_since_tack = 0
        self._last_arrival = 0.0
        self._fallback_rtt_min = 0.1
        # Timer ticks since the last emission: 1 means the periodic
        # clock is the binding constraint of Eq. (3) ("periodic"), >1
        # means ticks were skipped waiting for L*MSS ("bytecount").
        self._ticks_since_emit = 0
        # Graceful degradation under heavy ACK-path loss: True while
        # the periodic clock is densified (see periodic_interval).
        self._degraded = False

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def rtt_min(self) -> float:
        peer = self.receiver.peer_rtt_min
        return peer if peer is not None and peer > 0 else self._fallback_rtt_min

    def periodic_interval(self) -> float:
        """The periodic component of Eq. (3): RTT_min / beta.

        Under heavy ACK-path loss (sender-synced rho' above
        ``degrade_ack_loss``) a rich/adaptive receiver *degrades
        gracefully*: the clock densifies by ``1 / (1 - rho')`` (capped
        at ``max_degrade_factor``) so the expected rate of *surviving*
        feedback stays near the Eq. (3) design point instead of
        starving the sender into RTO.  Poor mode never degrades — it
        is the Fig. 5(b) baseline and must keep the literal clock.
        """
        rtt_min = self.rtt_min()
        self.receiver.rate.set_filter_window(
            max(self.params.bw_filter_rtts * rtt_min, 0.05)
        )
        boost = 1.0
        if self.params.rich is not False:
            rho_prime = self.receiver.peer_ack_loss_rate
            if rho_prime > self.params.degrade_ack_loss:
                boost = min(1.0 / (1.0 - min(rho_prime, 0.9)),
                            self.params.max_degrade_factor)
        degraded = boost > 1.0
        if degraded != self._degraded:
            self._degraded = degraded
            # Rare (mode flips only), so the attribute lookup instead
            # of a cached reference costs nothing measurable.
            bus = self.receiver.sim.probes
            if bus is not None:
                bus.emit("ack", "degrade", self.receiver.flow_id, {
                    "on": degraded, "boost": round(boost, 3),
                    "ack_loss": self.receiver.peer_ack_loss_rate})
        return max(rtt_min / (self.params.beta * boost), 1e-4)

    def _block_budget(self) -> tuple[int, int]:
        """(max acked blocks, max unacked blocks) for the next TACK.

        Adaptive mode implements the paper's "carried on demand": the
        sender syncs its measured ACK-path loss (rho'); while it is
        below the Eq. (6) threshold the TACK carries only the primary
        Q blocks, above it the budget grows by delta-Q (Appendix A).
        """
        if self.params.rich is True:
            per_list = _RICH_BLOCK_LIMIT // 2
            return per_list, per_list
        if self.params.rich == "adaptive":
            q = self.params.primary_blocks_q
            rho = self.receiver.pkt_tracker.loss_rate()
            rho_prime = self.receiver.peer_ack_loss_rate
            bw = self.receiver.rate.bw_bps(self.receiver.sim.now())
            bdp = bw * self.rtt_min() / 8.0
            threshold = rich_info_threshold(
                rho, bdp, q, self.params.beta, self.params.ack_count_l,
                self.params.mss,
            )
            if rho_prime > threshold:
                extra = additional_blocks(
                    rho, rho_prime, bdp, q, self.params.beta,
                    self.params.ack_count_l, self.params.mss,
                )
                budget = min(q + extra, _RICH_BLOCK_LIMIT // 2)
                return max(3, budget), budget
            return 3, q
        return 3, self.params.primary_blocks_q

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def on_data(self, packet: Packet, in_order: bool) -> None:
        self._bytes_since_tack += packet.payload_len
        self._last_arrival = self.receiver.sim.clock._now
        if self._timer is None:
            self._arm(self.periodic_interval())

    def on_gap(self, event: GapEvent) -> None:
        """Loss event: pull the missing range with an IACK."""
        if not self.params.loss_event_iack:
            return  # ablation: rely on periodic TACK reports alone
        delay = self.params.iack_reorder_delay_factor * self.rtt_min()
        if delay > 0:
            # Settling-time allowance for reordering (paper S7).
            self.receiver.sim.call_in(delay, lambda: self._send_iack_pull(event))
        else:
            self._send_iack_pull(event)

    def _send_iack_pull(self, event: GapEvent) -> None:
        if self.receiver is None:
            return
        lo, hi = event.missing_range()
        if not self.receiver.pkt_tracker.any_missing(lo, hi):
            # The settling delay did its job: reordered arrivals filled
            # the gap, so there is nothing to pull.
            return
        fb = self.receiver.build_feedback(
            max_sack_blocks=1,
            max_unacked_blocks=1,
            pull_pkt_range=(event.second_largest, event.largest),
            reason="loss",
        )
        self.receiver.emit_feedback(PacketType.IACK, fb)

    def on_window_event(self, reason: str) -> None:
        """Abrupt receive-buffer change: immediate window update."""
        fb = self.receiver.build_feedback(max_sack_blocks=1, reason=reason)
        self.receiver.emit_feedback(PacketType.IACK, fb)

    def on_close(self) -> None:
        if self.receiver is not None:
            self._emit_tack(reason="close")

    # ------------------------------------------------------------------
    # the periodic TACK clock
    # ------------------------------------------------------------------
    def _arm(self, interval: float) -> None:
        self._timer = self.receiver.sim.call_in(interval, self._on_timer)

    def _on_timer(self) -> None:
        """Implements Eq. (3) without needing a bandwidth estimate for
        the *trigger*: the timer fires every RTT_min/beta (the periodic
        clock) but only emits once L full-sized packets have been
        counted (the byte-counting clock) — i.e. the TACK rate is the
        *minimum* of the two frequencies.  A straggler flush covers
        tails shorter than L packets once the flow goes quiet.
        """
        self._timer = None
        if self.receiver is None:
            return
        now = self.receiver.sim.now()
        self._ticks_since_emit += 1
        interval = self.periodic_interval()
        threshold = self.params.ack_count_l * self.params.mss
        if self._bytes_since_tack >= threshold:
            # One tick since the last TACK means the periodic clock
            # (beta/RTT_min) binds; skipped ticks mean emission waited
            # on the byte-counting clock (bw/(L*MSS)).
            self._emit_tack(reason="periodic" if self._ticks_since_emit <= 1
                            else "bytecount")
            self._arm(interval)
        elif self._bytes_since_tack > 0:
            if now - self._last_arrival >= 2.0 * interval:
                # Flow went quiet with a sub-L tail: flush it.  Two
                # intervals of silence distinguish "flow ended" from
                # "next packet is merely slower than the periodic
                # clock" (trickle flows stay byte-counting).
                self._emit_tack(reason="flush")
                if (self.params.holb_keepalive
                        and self.receiver.holb_blocked_bytes() > 0):
                    self._arm(interval)
            else:
                self._arm(interval)
        elif self.params.holb_keepalive and self.receiver.holb_blocked_bytes() > 0:
            # No fresh data but holes outstanding: keep pulling.  The
            # paper's TACK "proactively and periodically carries rich
            # information to pull lost packets" — the periodic clock
            # must not go dormant while recovery is incomplete, or a
            # lost pull strands the connection until RTO.  (Disable
            # via TackParams.holb_keepalive to get the literal Eq. (3)
            # clock the paper's TACK-poor baseline exhibits.)
            self._emit_tack(reason="periodic")
            self._arm(interval)
        # else: dormant; the next data arrival re-arms the clock.

    def _emit_tack(self, reason: str = "periodic") -> None:
        self._bytes_since_tack = 0
        self._ticks_since_emit = 0
        max_acked, max_unacked = self._block_budget()
        if not self.params.loss_event_iack:
            # Paper S5.1: "TACK only reports missing packets that have
            # been reported by loss-event-driven IACKs."  With IACKs
            # disabled nothing is eligible, so recovery falls back to
            # the sender's RTO — exactly the Fig. 5(a) baseline.
            max_unacked = 0
        fb = self.receiver.build_feedback(
            max_sack_blocks=max_acked,
            max_unacked_blocks=max_unacked,
            include_timing=True,
            include_rate=True,
            reason=reason,
            min_gap_age_s=self.params.iack_reorder_delay_factor * self.rtt_min(),
        )
        self.receiver.emit_feedback(PacketType.TACK, fb)

    def detach(self) -> None:
        if self._timer is not None:
            self.receiver.sim.cancel(self._timer)
            self._timer = None
        super().detach()
