"""PHY-layer profiles for 802.11b/g/n/ac.

Timing constants follow the respective standards (slot, SIFS, DIFS,
preamble) and the aggregation limits are calibrated so that saturated
single-flow UDP goodput with 1518-byte frames lands near the paper's
Figure 7 baselines (7 / 26 / 210 / 590 Mbps for b / g / n / ac).
The PHY *raw* rates match Figure 7 exactly: 11 / 54 / 300 / 866.7 Mbps.
"""

from __future__ import annotations

from typing import Optional


class PhyProfile:
    """Timing and rate description of one 802.11 PHY generation.

    All times in seconds, rates in bits per second.

    Attributes
    ----------
    phy_rate_bps:
        Data-frame modulation rate (Figure 7 "PHY capacity").
    basic_rate_bps:
        Control-frame (link ACK / block-ACK) modulation rate.
    slot_s, sifs_s, difs_s:
        DCF timing primitives.
    preamble_s:
        PLCP preamble + header airtime paid once per PPDU.
    ack_s:
        Airtime of the link-layer ACK or block-ACK response
        (preamble + control frame at the basic rate).
    cw_min, cw_max:
        Contention-window bounds in slots (CW doubles per retry).
    max_ampdu_frames / max_ampdu_bytes:
        A-MPDU aggregation limits; ``1`` / ``None`` disables
        aggregation (802.11b/g).
    mpdu_overhead_bytes:
        Per-MPDU delimiter + padding inside an aggregate.
    mac_overhead_bytes:
        MAC header + FCS added to every MPDU.
    retry_limit:
        Transmission attempts before a frame is dropped by the MAC.
    """

    def __init__(
        self,
        name: str,
        phy_rate_bps: float,
        basic_rate_bps: float,
        slot_s: float,
        sifs_s: float,
        difs_s: float,
        preamble_s: float,
        ack_s: float,
        cw_min: int = 15,
        cw_max: int = 1023,
        max_ampdu_frames: int = 1,
        max_ampdu_bytes: Optional[int] = None,
        mpdu_overhead_bytes: int = 0,
        mac_overhead_bytes: int = 34,
        retry_limit: int = 7,
    ):
        if phy_rate_bps <= 0 or basic_rate_bps <= 0:
            raise ValueError("PHY rates must be positive")
        if max_ampdu_frames < 1:
            raise ValueError("max_ampdu_frames must be >= 1")
        self.name = name
        self.phy_rate_bps = phy_rate_bps
        self.basic_rate_bps = basic_rate_bps
        self.slot_s = slot_s
        self.sifs_s = sifs_s
        self.difs_s = difs_s
        self.preamble_s = preamble_s
        self.ack_s = ack_s
        self.cw_min = cw_min
        self.cw_max = cw_max
        self.max_ampdu_frames = max_ampdu_frames
        self.max_ampdu_bytes = max_ampdu_bytes
        self.mpdu_overhead_bytes = mpdu_overhead_bytes
        self.mac_overhead_bytes = mac_overhead_bytes
        self.retry_limit = retry_limit

    # ------------------------------------------------------------------
    def mpdu_bytes(self, payload_bytes: int) -> int:
        """On-air bytes for one MPDU carrying ``payload_bytes``."""
        return payload_bytes + self.mac_overhead_bytes + self.mpdu_overhead_bytes

    def ppdu_airtime(self, total_mpdu_bytes: int,
                     rate_bps: Optional[float] = None) -> float:
        """Airtime of one PPDU (preamble + payload at the PHY rate, or
        at a rate-adaptation-selected ``rate_bps``)."""
        rate = rate_bps if rate_bps is not None else self.phy_rate_bps
        return self.preamble_s + total_mpdu_bytes * 8.0 / rate

    def exchange_airtime(self, total_mpdu_bytes: int,
                         rate_bps: Optional[float] = None) -> float:
        """Airtime of a full data exchange excluding contention:
        PPDU + SIFS + (block-)ACK."""
        return self.ppdu_airtime(total_mpdu_bytes, rate_bps) + self.sifs_s + self.ack_s

    def dcf_exchange_s(self, total_mpdu_bytes: int) -> float:
        """Full cost of one uncontended DCF exchange at the top rate:
        DIFS + mean initial backoff + PPDU + SIFS + (block-)ACK."""
        return (self.difs_s + self.mean_backoff_s()
                + self.exchange_airtime(total_mpdu_bytes))

    def rate_table(self) -> list[float]:
        """Descending MCS rates for rate adaptation (a simplified
        4-step ladder anchored at the profile's top rate)."""
        return [self.phy_rate_bps * f for f in (1.0, 0.75, 0.5, 0.25)]

    def mean_backoff_s(self, cw: Optional[int] = None) -> float:
        """Expected initial backoff duration for contention window
        ``cw`` (defaults to ``cw_min``)."""
        if cw is None:
            cw = self.cw_min
        return (cw / 2.0) * self.slot_s

    def saturation_goodput_bps(self, payload_bytes: int = 1500,
                               wire_bytes: int = 1518) -> float:
        """Analytic single-station saturation goodput.

        One station, no collisions: every exchange costs
        DIFS + E[backoff] + PPDU + SIFS + ACK and carries
        ``n * payload_bytes`` of goodput where ``n`` is the aggregate
        size.  This is the model used to calibrate profiles against the
        paper's UDP baselines.
        """
        n = self.aggregate_limit(wire_bytes)
        total = n * self.mpdu_bytes(wire_bytes)
        return n * payload_bytes * 8.0 / self.dcf_exchange_s(total)

    def aggregate_limit(self, wire_bytes: int) -> int:
        """Max MPDUs of ``wire_bytes`` that fit one A-MPDU."""
        n = self.max_ampdu_frames
        if self.max_ampdu_bytes is not None:
            per = self.mpdu_bytes(wire_bytes)
            n = min(n, max(1, self.max_ampdu_bytes // per))
        return n

    def __repr__(self) -> str:
        return f"PhyProfile({self.name}, {self.phy_rate_bps / 1e6:g} Mbps)"


def _make_profiles() -> dict[str, PhyProfile]:
    """Build the four calibrated profiles from the paper's testbed.

    Calibration targets (paper Figure 7, UDP baseline):
    802.11b ~= 7 Mbps, g ~= 26 Mbps, n ~= 210 Mbps, ac ~= 590 Mbps.
    """
    profiles = {
        # DSSS: long preamble 192 us, ACK at 2 Mbps.
        "802.11b": PhyProfile(
            name="802.11b",
            phy_rate_bps=11e6,
            basic_rate_bps=2e6,
            slot_s=20e-6,
            sifs_s=10e-6,
            difs_s=50e-6,
            preamble_s=192e-6,
            ack_s=192e-6 + 14 * 8 / 2e6,
            cw_min=31,
            cw_max=1023,
        ),
        # ERP-OFDM in b-compatibility mode (20 us slots, 50 us DIFS),
        # which is what a mixed-mode commodity router provides.
        "802.11g": PhyProfile(
            name="802.11g",
            phy_rate_bps=54e6,
            basic_rate_bps=24e6,
            slot_s=20e-6,
            sifs_s=10e-6,
            difs_s=50e-6,
            preamble_s=20e-6,
            ack_s=20e-6 + 14 * 8 / 24e6,
            cw_min=15,
            cw_max=1023,
        ),
        # HT 40 MHz 2x2: A-MPDU aggregation, block ACK.
        "802.11n": PhyProfile(
            name="802.11n",
            phy_rate_bps=300e6,
            basic_rate_bps=24e6,
            slot_s=9e-6,
            sifs_s=16e-6,
            difs_s=34e-6,
            preamble_s=40e-6,
            ack_s=20e-6 + 32 * 8 / 24e6,
            cw_min=15,
            cw_max=1023,
            # Calibrated: the BA window allows 64 MPDUs but commodity
            # NICs rarely sustain more than ~12 per TXOP at this rate;
            # 12 lands the UDP baseline at the paper's 210 Mbps.
            max_ampdu_frames=12,
            max_ampdu_bytes=65535,
            mpdu_overhead_bytes=8,
        ),
        # VHT 80 MHz 2x2: larger A-MPDU, block ACK.
        "802.11ac": PhyProfile(
            name="802.11ac",
            phy_rate_bps=866.7e6,
            basic_rate_bps=24e6,
            slot_s=9e-6,
            sifs_s=16e-6,
            difs_s=34e-6,
            preamble_s=44e-6,
            ack_s=20e-6 + 32 * 8 / 24e6,
            cw_min=15,
            cw_max=1023,
            # Calibrated: 32 MPDUs per TXOP puts the UDP baseline at
            # the paper's 590 Mbps.
            max_ampdu_frames=32,
            max_ampdu_bytes=1048575,
            mpdu_overhead_bytes=8,
        ),
    }
    return profiles


PHY_PROFILES = _make_profiles()
"""Calibrated profiles keyed by standard name."""


def get_profile(name: str) -> PhyProfile:
    """Look up a profile; accepts "802.11n" or the short form "n"."""
    if name in PHY_PROFILES:
        return PHY_PROFILES[name]
    full = f"802.11{name}"
    if full in PHY_PROFILES:
        return PHY_PROFILES[full]
    raise KeyError(f"unknown PHY profile: {name!r} (have {sorted(PHY_PROFILES)})")
