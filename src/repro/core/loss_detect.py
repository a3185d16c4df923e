"""Receiver-based loss detection over packet numbers (paper S5.1).

Every transmission — original or retransmission — carries a fresh,
monotonically increasing ``PKT.SEQ``, so the receiver can detect the
loss of a *retransmission* (legacy SEQ-only numbering cannot).  The
tracker reports a *gap event* whenever a packet arrives with a number
beyond ``largest_seen + 1``; the event identifies the missing range
``(second_largest, largest)`` exactly as the paper's IACK carries it.

The sender side (:class:`RetransmitGovernor`) enforces the paper's
suppression rule: a given byte range is retransmitted at most once per
RTT even when IACKs and TACKs both report it.
"""

from __future__ import annotations

from typing import Optional


class GapEvent:
    """A freshly detected hole in PKT.SEQ space."""

    __slots__ = ("second_largest", "largest", "missing_count")

    def __init__(self, second_largest: int, largest: int):
        self.second_largest = second_largest
        self.largest = largest
        self.missing_count = largest - second_largest - 1

    def missing_range(self) -> tuple[int, int]:
        """Missing pkt_seqs as an inclusive range."""
        return (self.second_largest + 1, self.largest - 1)

    def __repr__(self) -> str:
        return f"GapEvent(missing pkt_seq {self.second_largest + 1}..{self.largest - 1})"


class PktSeqTracker:
    """Receiver-side packet-number bookkeeping.

    Detects out-of-order arrivals in PKT.SEQ space (loss events) and
    maintains the statistics the TACK syncs back: the receipt horizon
    and the expected-vs-received counts for the loss-rate estimate.
    """

    def __init__(self):
        self.largest_seen: int = 0
        self.received = 0
        # One byte per PKT.SEQ below the last gap's upper edge, 1 for a
        # hole never filled, and a count of the 1s.  Nothing is pruned:
        # a delayed IACK re-validates its gap (any_missing) a settling
        # delay after it opened, and a byte per number is cheap.
        self._hole_map = bytearray()
        self._hole_count = 0
        self.duplicates = 0

    def on_packet(self, pkt_seq: int) -> Optional[GapEvent]:
        """Record an arrival; returns a gap event if this arrival
        exposes fresh missing packet numbers."""
        self.received += 1
        largest = self.largest_seen
        if pkt_seq <= largest:
            # Filling a known hole (or a duplicate in pkt space --
            # cannot happen with unique numbering, but stay safe).
            hole_map = self._hole_map
            if 0 <= pkt_seq < len(hole_map) and hole_map[pkt_seq]:
                hole_map[pkt_seq] = 0
                self._hole_count -= 1
            else:
                self.duplicates += 1
            return None
        event: Optional[GapEvent] = None
        if pkt_seq > largest + 1 and largest > 0:
            event = GapEvent(largest, pkt_seq)
            hole_map = self._hole_map
            hole_map.extend(bytes(largest + 1 - len(hole_map)))
            hole_map.extend(b"\x01" * (pkt_seq - largest - 1))
            self._hole_count += pkt_seq - largest - 1
        self.largest_seen = pkt_seq
        return event

    def any_missing(self, lo: int, hi: int) -> bool:
        """True when any pkt_seq in the inclusive range is still an
        unfilled hole (used to re-validate delayed IACK pulls)."""
        return self._hole_map.find(1, lo, hi + 1) != -1

    def holes(self) -> list[int]:
        """The unfilled holes' packet numbers, ascending."""
        return [p for p, hole in enumerate(self._hole_map) if hole]

    @property
    def outstanding_holes(self) -> int:
        """Packet numbers known missing and never filled.

        Holes filled by *retransmissions* stay outstanding (the retx
        carries a new number), so this counts transmission losses, not
        unrecovered data.
        """
        return self._hole_count

    def loss_rate(self) -> float:
        """Fraction of transmitted packets (<= horizon) that never
        arrived: the receiver's rho estimate (paper S5.4)."""
        if self.largest_seen == 0:
            return 0.0
        return self._hole_count / self.largest_seen


class RetransmitGovernor:
    """Sender-side once-per-RTT retransmission suppression.

    The paper: "the sender only retransmits a specific packet once per
    RTT when the loss is repeatedly notified by both IACKs and TACKs."
    Keyed by byte-range start; entries are pruned as data is acked.
    """

    def __init__(self):
        self._last_retx: dict[int, float] = {}

    def may_retransmit(self, seq_start: int, now: float,
                       window_s: float) -> bool:
        """True unless ``seq_start`` was retransmitted less than
        ``window_s`` ago.  The sender passes its suppression window,
        ``1.5 * srtt`` (one RTT plus the feedback lag)."""
        last = self._last_retx.get(seq_start)
        return last is None or now - last >= window_s

    def on_retransmit(self, seq_start: int, now: float) -> None:
        self._last_retx[seq_start] = now

    def on_acked(self, seq_start: int) -> None:
        self._last_retx.pop(seq_start, None)

    def __len__(self) -> int:
        return len(self._last_retx)
