"""RACK-style time-based loss detection (sender side, legacy TCP).

RACK [21] declares a packet lost when another packet *sent later* has
been (s)acked and more than ``rtt + reordering window`` has elapsed
since the packet's transmission.  The paper's TCP BBR baseline uses
RACK; TCP-TACK replaces this with receiver-based detection.
"""

from __future__ import annotations

from typing import Optional


class RackState:
    """Tracks the most recently delivered packet's send time."""

    def __init__(self, reo_wnd_fraction: float = 0.25):
        self.reo_wnd_fraction = reo_wnd_fraction
        # Raised, never lowered, by the sender as it settles (s)acked
        # records (TransportSender._settle_run).
        self.latest_delivered_send_time: Optional[float] = None

    def reo_wnd(self, srtt: float) -> float:
        return self.reo_wnd_fraction * srtt

    def is_lost(self, send_time: float, srtt: float, now: float) -> bool:
        """Is an outstanding packet sent at ``send_time`` lost?  Never
        True again once False as ``send_time`` grows (rounded float
        addition is monotone): the sender's RACK sweep relies on it."""
        if self.latest_delivered_send_time is None:
            return False
        if send_time >= self.latest_delivered_send_time:
            return False
        return now >= send_time + srtt + self.reo_wnd(srtt)
