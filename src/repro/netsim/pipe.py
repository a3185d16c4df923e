"""Ideal pipe: fixed-delay, infinite-rate delivery.

Used to unit-test protocol logic in isolation from link dynamics, to
model intra-host handoff, and as a WLAN path's uplink extra delay.
"""

from __future__ import annotations

import collections
from typing import Callable, Optional

from repro.netsim.engine import Simulator
from repro.netsim.loss import LossModel
from repro.netsim.packet import Packet


class Pipe:
    """Delivers every packet to ``sink`` after exactly ``delay_s``.

    Optionally applies a loss model, so protocol tests can inject exact
    drop patterns without configuring a full link.

    ``delay_s`` is read-only after construction, so packets leave in
    the order they entered: one FIFO serves every delivery event.
    """

    __slots__ = ("sim", "_delay_s", "sink", "loss", "packets_sent",
                 "packets_lost", "packets_delivered", "_in_transit")

    def __init__(
        self,
        sim: Simulator,
        delay_s: float = 0.0,
        sink: Optional[Callable[[Packet], None]] = None,
        loss: Optional[LossModel] = None,
    ):
        if not delay_s >= 0:  # also rejects NaN
            raise ValueError(f"negative delay: {delay_s}")
        self.sim = sim
        self._delay_s = delay_s
        self.sink = sink
        self.loss = loss
        self.packets_sent = 0
        self.packets_lost = 0
        self.packets_delivered = 0
        self._in_transit: collections.deque[Packet] = collections.deque()

    @property
    def delay_s(self) -> float:
        return self._delay_s

    def connect(self, sink: Callable[[Packet], None]) -> None:
        self.sink = sink

    def send(self, packet: Packet) -> bool:
        self.packets_sent += 1
        sim, loss = self.sim, self.loss
        now = sim.clock._now
        if loss is not None and loss.should_drop(packet, now):
            self.packets_lost += 1
            return False
        self._in_transit.append(packet)
        sim.call_at(now + self._delay_s, self._deliver_next)
        return True

    def _deliver_next(self) -> None:
        packet = self._in_transit.popleft()
        self.packets_delivered += 1
        packet.hops += 1
        if self.sink is not None:
            self.sink(packet)
