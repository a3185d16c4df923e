"""Packet representation shared by every layer of the simulation.

A single mutable class models data segments, the five ACK flavors, UDP
datagrams, and control frames.  Transport-layer metadata (sequence
numbers, block lists, rate/delay reports) lives in optional fields that
default to ``None`` so a bare UDP datagram stays cheap.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional


class PacketType(enum.Enum):
    """Wire-level packet kinds used across the stack."""

    DATA = "data"
    ACK = "ack"            # legacy cumulative/SACK acknowledgment
    TACK = "tack"          # periodic/byte-counting Tame ACK
    IACK = "iack"          # event-driven Instant ACK
    SYN = "syn"
    SYN_ACK = "syn_ack"
    FIN = "fin"
    UDP = "udp"            # unreliable datagram (UDP blaster, RTP video)


#: Every acknowledgment flavor (a tuple: ``in`` matches by identity).
ACK_KINDS = (PacketType.ACK, PacketType.TACK, PacketType.IACK)

_packet_uid = itertools.count(1)


class Packet:
    """A simulated packet.

    Attributes
    ----------
    kind:
        One of :class:`PacketType`.
    size:
        Total on-wire size in bytes including headers; this is what
        links and the WLAN medium serialize.
    seq:
        Byte-stream sequence number of the first payload byte
        (``None`` for pure control packets).
    pkt_seq:
        Monotonically increasing packet number (paper's ``PKT.SEQ``);
        retransmissions get a fresh value, removing retransmission
        ambiguity for receiver-based loss detection.
    payload_len:
        Number of bytestream payload bytes carried.
    sent_at:
        Departure timestamp stamped by the sending endpoint; used for
        relative one-way-delay samples (no clock sync needed since both
        endpoints share the virtual clock, but the protocol code only
        ever uses *differences* of these values, as the paper requires).
    flow_id:
        Opaque identifier used by stats collectors and the medium to
        attribute packets to flows.
    meta:
        Free-form per-layer annotations (e.g. ACK feedback structures).
    """

    __slots__ = (
        "uid",
        "kind",
        "size",
        "seq",
        "pkt_seq",
        "payload_len",
        "sent_at",
        "flow_id",
        "meta",
        "hops",
    )

    def __init__(
        self,
        kind: PacketType,
        size: int,
        seq: Optional[int] = None,
        pkt_seq: Optional[int] = None,
        payload_len: int = 0,
        flow_id: int = 0,
    ):
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        if payload_len < 0:
            raise ValueError(f"negative payload length: {payload_len}")
        self.uid = next(_packet_uid)
        self.kind = kind
        self.size = size
        self.seq = seq
        self.pkt_seq = pkt_seq
        self.payload_len = payload_len
        self.sent_at: Optional[float] = None
        self.flow_id = flow_id
        self.meta: dict[str, Any] = {}
        self.hops = 0

    # ------------------------------------------------------------------
    def end_seq(self) -> int:
        """Sequence number one past the last payload byte."""
        if self.seq is None:
            raise ValueError("packet has no sequence number")
        return self.seq + self.payload_len

    def __repr__(self) -> str:
        parts = [f"{self.kind.value}", f"size={self.size}"]
        if self.seq is not None:
            parts.append(f"seq={self.seq}")
        if self.pkt_seq is not None:
            parts.append(f"pkt_seq={self.pkt_seq}")
        return f"Packet({', '.join(parts)})"


# Conventional wire sizes used throughout the paper's experiments.
MSS = 1500
"""Maximum segment size in payload bytes (paper S6.1)."""

DATA_PACKET_SIZE = 1518
"""Full-sized data packet on the wire (paper S3.2: 1518-byte packets)."""

ACK_PACKET_SIZE = 64
"""Bare acknowledgment on the wire (paper S3.2: 64-byte ACKs)."""

HEADER_SIZE = DATA_PACKET_SIZE - MSS
"""Ethernet + IP + TCP framing overhead implied by the sizes above."""


def make_data_packet(seq: int, pkt_seq: int, payload_len: int = MSS, flow_id: int = 0) -> Packet:
    """Build a data segment with conventional framing overhead."""
    return Packet(
        PacketType.DATA,
        size=payload_len + HEADER_SIZE,
        seq=seq,
        pkt_seq=pkt_seq,
        payload_len=payload_len,
        flow_id=flow_id,
    )


def make_ack_packet(kind: PacketType = PacketType.ACK, extra_bytes: int = 0, flow_id: int = 0) -> Packet:
    """Build an acknowledgment; ``extra_bytes`` models rich TACK blocks."""
    if not extra_bytes >= 0:
        raise ValueError(f"negative extra_bytes: {extra_bytes}")
    size = min(ACK_PACKET_SIZE + extra_bytes, DATA_PACKET_SIZE)
    return Packet(kind, size=size, flow_id=flow_id)
