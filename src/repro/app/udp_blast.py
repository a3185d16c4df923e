"""The paper's UDP-based measurement tool (S3.2).

"The sender keeps sending 1518-byte packets at a fixed sending rate
(100 Mbps), and the receiver counts the received bytes, and then sends
one 64-byte packet that acts as an ACK" — parameterized by the
byte-counting factor L.  Used for Fig. 3 (contention) and Fig. 9(b)
(ideal goodput of ACK-thinning schemes).
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.engine import Simulator
from repro.netsim.packet import (
    ACK_PACKET_SIZE,
    DATA_PACKET_SIZE,
    Packet,
    PacketType,
)


class UdpBlaster:
    """Fixed-rate unreliable sender."""

    def __init__(
        self,
        sim: Simulator,
        port,
        rate_bps: float,
        packet_size: int = DATA_PACKET_SIZE,
        flow_id: int = 0,
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        self.sim = sim
        self.port = port
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.flow_id = flow_id
        self.packets_sent = 0
        self.bytes_sent = 0
        self._timer = None
        self._seq = 0

    @property
    def interval_s(self) -> float:
        return self.packet_size * 8.0 / self.rate_bps

    def start(self) -> None:
        self._tick()

    def stop(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None

    def _tick(self) -> None:
        payload = self.packet_size - 18  # ethernet framing
        pkt = Packet(
            PacketType.UDP,
            size=self.packet_size,
            seq=self._seq * payload,
            pkt_seq=self._seq + 1,
            payload_len=payload,
            flow_id=self.flow_id,
        )
        pkt.sent_at = self.sim.now()
        self._seq += 1
        self.packets_sent += 1
        self.bytes_sent += self.packet_size
        self.port.send(pkt)
        self._timer = self.sim.call_in(self.interval_s, self._tick)


class UdpAckResponder:
    """Counts arrivals and answers every L-th packet with a 64-byte
    ACK-like datagram (the tool's receiver side)."""

    def __init__(
        self,
        sim: Simulator,
        reverse_port,
        count_l: int = 1,
        ack_size: int = ACK_PACKET_SIZE,
        flow_id: int = 0,
    ):
        if count_l < 1:
            raise ValueError(f"L must be >= 1, got {count_l}")
        self.sim = sim
        self.reverse_port = reverse_port
        self.count_l = count_l
        self.ack_size = ack_size
        self.flow_id = flow_id
        self.packets_received = 0
        self.bytes_received = 0
        self.payload_bytes_received = 0
        self.acks_sent = 0

    def on_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        self.bytes_received += packet.size
        self.payload_bytes_received += packet.payload_len
        if self.packets_received % self.count_l == 0:
            ack = Packet(PacketType.UDP, size=self.ack_size, flow_id=self.flow_id)
            ack.sent_at = self.sim.now()
            self.acks_sent += 1
            self.reverse_port.send(ack)

    def goodput_bps(self, duration: float) -> float:
        if duration <= 0:
            return 0.0
        return self.payload_bytes_received * 8.0 / duration


class ContentionResult:
    """Outcome of one Fig. 3-style trial."""

    def __init__(self, data_throughput_bps: float, ack_throughput_bps: float,
                 collision_rate: float, acks_delivered: int):
        self.data_throughput_bps = data_throughput_bps
        self.ack_throughput_bps = ack_throughput_bps
        self.collision_rate = collision_rate
        self.acks_delivered = acks_delivered


def run_contention_trial(
    sim: Simulator,
    forward_port,
    reverse_port,
    count_l: int,
    rate_bps: float = 100e6,
    duration_s: float = 2.0,
    medium=None,
    ack_sink_counter: Optional[list] = None,
) -> ContentionResult:
    """Run the paper's S3.2 experiment on pre-built ports.

    ``forward_port``/``reverse_port`` carry data and ACKs; the caller
    supplies WLAN ports for the wireless trials.  Returns data-path
    and ACK-path throughputs as the paper plots them.
    """
    responder = UdpAckResponder(sim, reverse_port, count_l=count_l)
    forward_port.connect(responder.on_packet)
    ack_bytes = [0]

    def ack_sink(packet: Packet) -> None:
        ack_bytes[0] += packet.size
        if ack_sink_counter is not None:
            ack_sink_counter.append(sim.now())

    reverse_port.connect(ack_sink)
    blaster = UdpBlaster(sim, forward_port, rate_bps)
    blaster.start()
    sim.run(until=sim.now() + duration_s)
    blaster.stop()
    return ContentionResult(
        data_throughput_bps=responder.goodput_bps(duration_s),
        ack_throughput_bps=ack_bytes[0] * 8.0 / duration_s,
        collision_rate=medium.collision_rate() if medium is not None else 0.0,
        acks_delivered=responder.acks_sent,
    )
