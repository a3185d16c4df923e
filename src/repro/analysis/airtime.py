"""Analytic WLAN airtime model: ideal goodput under ACK thinning.

A closed-form companion to the Fig. 9(b) simulation: with one data
station aggregating ``n_agg`` MPDUs per TXOP and the receiver paying a
full medium acquisition per transport ACK (one ACK every ``L`` data
packets), the steady-state cycle alternates data TXOPs and the ACK
TXOPs they generate.  Collisions are ignored (the paper's "ideal"
case assumes no transport disturbance; contention cost enters through
the per-acquisition overhead).

This model also quantifies the paper's core observation: the ACK
airtime share scales with ``n_agg / L``, so faster PHYs (deeper
aggregation) suffer proportionally more from frequent ACKs.
"""

from __future__ import annotations

from repro.netsim.packet import ACK_PACKET_SIZE, DATA_PACKET_SIZE, MSS
from repro.wlan.phy import PhyProfile


def txop_airtime_s(phy: PhyProfile, frame_bytes: int, n_frames: int = 1) -> float:
    """Full cost of one TXOP: DIFS + mean backoff + PPDU + SIFS + ACK."""
    return phy.dcf_exchange_s(n_frames * phy.mpdu_bytes(frame_bytes))


def ideal_goodput_bps(
    phy: PhyProfile,
    ack_every_l: float,
    data_bytes: int = DATA_PACKET_SIZE,
    ack_bytes: int = ACK_PACKET_SIZE,
    payload_bytes: int = MSS,
    ack_aggregation: int = 1,
) -> float:
    """Saturation goodput when every L-th data packet costs an ACK
    acquisition (ACKs aggregated ``ack_aggregation`` per TXOP)."""
    if ack_every_l <= 0:
        raise ValueError(f"L must be positive, got {ack_every_l}")
    if ack_aggregation < 1:
        raise ValueError(f"ack_aggregation must be >= 1, got {ack_aggregation}")
    n_agg = phy.aggregate_limit(data_bytes)
    data_txop = txop_airtime_s(phy, data_bytes, n_agg)
    # DCF alternates acquisitions between the two saturated stations,
    # so the ACK station wins at most one TXOP per data TXOP: below
    # L = n_agg the ACK path *saturates* instead of consuming more
    # airtime — the paper's "ACK throughput fails to double" effect.
    acks_per_data_txop = min(n_agg / ack_every_l / ack_aggregation, 1.0)
    ack_txop = txop_airtime_s(phy, ack_bytes, ack_aggregation)
    cycle = data_txop + acks_per_data_txop * ack_txop
    return n_agg * payload_bytes * 8.0 / cycle


def ack_airtime_share(
    phy: PhyProfile,
    ack_every_l: float,
    data_bytes: int = DATA_PACKET_SIZE,
    ack_bytes: int = ACK_PACKET_SIZE,
    ack_aggregation: int = 1,
) -> float:
    """Fraction of busy airtime consumed by transport ACKs."""
    n_agg = phy.aggregate_limit(data_bytes)
    data_txop = txop_airtime_s(phy, data_bytes, n_agg)
    acks = min(n_agg / ack_every_l / ack_aggregation, 1.0)
    ack_air = acks * txop_airtime_s(phy, ack_bytes, ack_aggregation)
    return ack_air / (data_txop + ack_air)


def tack_equivalent_l(goodput_bps: float, rtt_min_s: float,
                      beta: float = 4.0, payload_bytes: int = MSS) -> float:
    """The effective L of TACK in the periodic regime: one ACK per
    ``packet_rate * RTT_min / beta`` data packets."""
    pkt_rate_hz = goodput_bps / (payload_bytes * 8.0)
    return max(1.0, pkt_rate_hz * rtt_min_s / beta)
