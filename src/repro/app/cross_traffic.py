"""Background cross traffic for contended WAN trials (Fig. 14/15).

Cross traffic shares the bottleneck link of an
:class:`~repro.netsim.emulator.EmulatedPath` by injecting packets
directly into the forward link at a configurable duty cycle — the
"wild cross traffic" of the Pantheon environment without the cost of
full extra transport stacks.
"""

from __future__ import annotations

from repro.netsim.engine import Simulator
from repro.netsim.packet import DATA_PACKET_SIZE, Packet, PacketType


class OnOffCrossTraffic:
    """Markovian on/off CBR interferer.

    During ON periods, sends at ``rate_bps``; period lengths are
    exponential with the given means.  Deterministic given the
    simulator seed.
    """

    def __init__(
        self,
        sim: Simulator,
        port,
        rate_bps: float,
        mean_on_s: float = 1.0,
        mean_off_s: float = 1.0,
        flow_id: int = 999,
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        self.sim = sim
        self.port = port
        self.rate_bps = rate_bps
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.flow_id = flow_id
        self.rng = sim.fork_rng(f"cross-{flow_id}")
        self.packets_sent = 0
        self._on = False
        self._timer = None
        self._stopped = False

    def start(self) -> None:
        self._toggle()

    def stop(self) -> None:
        self._stopped = True
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None

    def _toggle(self) -> None:
        if self._stopped:
            return
        self._on = not self._on
        mean = self.mean_on_s if self._on else self.mean_off_s
        duration = self.rng.expovariate(1.0 / mean)
        self.sim.call_in(duration, self._toggle)
        # One tick chain: a tick still pending from before a short OFF
        # period carries on with it.
        if self._on and self._timer is None:
            self._send_tick()

    def _send_tick(self) -> None:
        self._timer = None
        if self._stopped or not self._on:
            return
        pkt = Packet(
            PacketType.UDP,
            size=DATA_PACKET_SIZE,
            payload_len=DATA_PACKET_SIZE - 18,
            flow_id=self.flow_id,
        )
        pkt.sent_at = self.sim.now()
        self.port.send(pkt)
        self.packets_sent += 1
        self._timer = self.sim.call_in(
            DATA_PACKET_SIZE * 8.0 / self.rate_bps, self._send_tick
        )
