"""RFC 1122/5681 delayed acknowledgment (paper Eq. 5).

An ACK is sent for every second full-sized segment, or when the
delayed-ACK timer (gamma_s) expires, whichever comes first.  Out-of-order
segments and segments that fill a hole are acknowledged immediately, as
the RFCs require — legacy fast retransmit depends on those dupACKs.
"""

from __future__ import annotations

from repro.ack.base import AckPolicy
from repro.netsim.packet import Packet


class DelayedAck(AckPolicy):
    """Classic delayed ACK: L=2 plus a timer bound."""

    name = "delayed"

    def __init__(self, count_l: int = 2, gamma_s: float = 0.1, max_sack_blocks: int = 3):
        super().__init__()
        if count_l < 1:
            raise ValueError(f"L must be >= 1, got {count_l}")
        if gamma_s <= 0:
            raise ValueError(f"gamma_s must be positive, got {gamma_s}")
        self.count_l = count_l
        self.gamma_s = gamma_s
        self.max_sack_blocks = max_sack_blocks
        self._unacked_segments = 0
        self._timer = None

    # ------------------------------------------------------------------
    def on_data(self, packet: Packet, in_order: bool) -> None:
        immediate = not in_order or self._fills_hole()
        self._unacked_segments += 1
        if immediate or self._unacked_segments >= self.count_l:
            self._emit()
        elif self._timer is None:
            self._timer = self.receiver.sim.call_in(self.gamma_s, self._on_timer)

    def _fills_hole(self) -> bool:
        # A segment that advanced cum_ack past previously buffered
        # out-of-order data "filled a hole"; approximate by checking
        # whether out-of-order data remains queued: the receiver's
        # holb_blocked_bytes() > 0, read off the interval set in place.
        receiver = self.receiver
        intervals, ptr = receiver.intervals, receiver.delivered_ptr
        return intervals.covered() + ptr > intervals.first_missing(ptr)

    def _on_timer(self) -> None:
        self._timer = None
        if self._unacked_segments > 0:
            self._emit()

    def _emit(self) -> None:
        self._unacked_segments = 0
        if self._timer is not None:
            self.receiver.sim.cancel(self._timer)
            self._timer = None
        self.receiver.send_ack(self.max_sack_blocks)

    def on_close(self) -> None:
        if self.receiver is not None:
            self._emit()

    def detach(self) -> None:
        if self._timer is not None:
            self.receiver.sim.cancel(self._timer)
            self._timer = None
        super().detach()
