"""Unit tests for the packet model."""

import pytest

from repro.netsim.packet import (
    ACK_KINDS,
    ACK_PACKET_SIZE,
    DATA_PACKET_SIZE,
    HEADER_SIZE,
    MSS,
    Packet,
    PacketType,
    make_ack_packet,
    make_data_packet,
)


class TestPacketBasics:
    def test_data_packet_size_convention(self):
        pkt = make_data_packet(seq=0, pkt_seq=1)
        assert pkt.size == DATA_PACKET_SIZE
        assert pkt.payload_len == MSS
        assert HEADER_SIZE == DATA_PACKET_SIZE - MSS

    def test_end_seq(self):
        pkt = make_data_packet(seq=3000, pkt_seq=3)
        assert pkt.end_seq() == 3000 + MSS

    def test_end_seq_requires_seq(self):
        with pytest.raises(ValueError):
            make_ack_packet().end_seq()

    def test_uid_unique(self):
        a = make_data_packet(0, 1)
        b = make_data_packet(0, 2)
        assert a.uid != b.uid

    def test_positive_size_enforced(self):
        with pytest.raises(ValueError):
            Packet(PacketType.DATA, size=0)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet(PacketType.DATA, size=100, payload_len=-1)


class TestAckPackets:
    def test_base_ack_size(self):
        assert make_ack_packet().size == ACK_PACKET_SIZE

    def test_extra_bytes_grow_ack(self):
        pkt = make_ack_packet(extra_bytes=100)
        assert pkt.size == ACK_PACKET_SIZE + 100

    def test_ack_capped_at_mtu(self):
        pkt = make_ack_packet(extra_bytes=10_000)
        assert pkt.size == DATA_PACKET_SIZE

    def test_negative_extra_rejected(self):
        with pytest.raises(ValueError):
            make_ack_packet(extra_bytes=-1)

    def test_data_not_ack_like(self):
        assert make_data_packet(0, 1).kind not in ACK_KINDS
