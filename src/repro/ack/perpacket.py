"""Per-packet acknowledgment (L=1, ``TCP_QUICKACK``; paper Eq. 4)."""

from __future__ import annotations

from repro.ack.base import AckPolicy
from repro.netsim.packet import Packet


class PerPacketAck(AckPolicy):
    """Acknowledge every data segment immediately with SACK blocks."""

    name = "per-packet"

    def __init__(self, max_sack_blocks: int = 3):
        super().__init__()
        self.max_sack_blocks = max_sack_blocks

    def on_data(self, packet: Packet, in_order: bool) -> None:
        self.receiver.send_ack(self.max_sack_blocks)

    def on_close(self) -> None:
        if self.receiver is not None:
            self.receiver.send_ack(self.max_sack_blocks)
