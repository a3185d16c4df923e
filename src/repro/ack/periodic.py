"""Purely periodic acknowledgment (paper Eq. 2).

One ACK every ``alpha_s`` seconds while data is flowing.  Bounded
frequency under high throughput, but unadaptable: the same frequency
is paid at trickle rates (the shortcoming TACK fixes by taking the
minimum of the two clocks).
"""

from __future__ import annotations

from repro.ack.base import AckPolicy
from repro.netsim.packet import Packet


class PeriodicAck(AckPolicy):
    """Timer-driven ACKs at fixed interval ``alpha_s``."""

    name = "periodic"

    def __init__(self, alpha_s: float = 0.025, max_sack_blocks: int = 3):
        super().__init__()
        if alpha_s <= 0:
            raise ValueError(f"alpha_s must be positive, got {alpha_s}")
        self.alpha_s = alpha_s
        self.max_sack_blocks = max_sack_blocks
        self._timer = None
        self._pending = False

    def on_data(self, packet: Packet, in_order: bool) -> None:
        self._pending = True
        if self._timer is None:
            self._timer = self.receiver.sim.call_in(self.alpha_s, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        if not self._pending:
            return
        self._pending = False
        self.receiver.send_ack(self.max_sack_blocks)
        self._timer = self.receiver.sim.call_in(self.alpha_s, self._on_timer)

    def on_close(self) -> None:
        if self.receiver is not None and self._pending:
            self._pending = False
            self.receiver.send_ack(self.max_sack_blocks)

    def detach(self) -> None:
        if self._timer is not None:
            self.receiver.sim.cancel(self._timer)
            self._timer = None
        super().detach()
