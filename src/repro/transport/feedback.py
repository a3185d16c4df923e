"""Feedback carried by acknowledgments.

A single structure covers all five ACK flavors; unused fields stay
``None``.  The structure rides in ``Packet.meta["fb"]`` and its wire
cost is charged through :func:`feedback_wire_bytes` so that "rich" TACKs
pay for the blocks they carry (paper S4.4: more information increases
ACK *size*, never ACK *count*).
"""

from __future__ import annotations

from math import isfinite
from typing import Any, Optional

from repro.transport.errors import FeedbackFormatError
from repro.netsim.packet import (
    ACK_PACKET_SIZE,
    DATA_PACKET_SIZE,
    Packet,
    PacketType,
)

BYTES_PER_BLOCK = 8
"""Wire cost of one (start, end) block, matching TCP SACK encoding."""

BYTES_PER_DELAY = 8
"""Wire cost of one per-packet (timestamp, delay) entry (S4.3's
rejected alternative)."""

FREE_BLOCKS = 3
"""Blocks that fit the base 64-byte ACK (TCP fits 3-4 SACK blocks)."""


class AckFeedback:
    """Transport feedback for the sender.

    Attributes
    ----------
    cum_ack:
        Next expected in-order byte (cumulative acknowledgment).
    awnd:
        Receiver's advertised window in bytes.
    sack_blocks:
        Received out-of-order byte ranges ``[(start, end), ...]``
        (end exclusive).  Legacy ACKs cap this at 3; rich TACKs may
        carry many (the paper's "acked list").
    unacked_blocks:
        Byte ranges the receiver is still missing below its highest
        received byte (the paper's "unacked list"); rich TACKs repeat
        these so loss notifications survive ACK-path loss.
    pull_pkt_range:
        ``(second_largest_pkt_seq, largest_pkt_seq)`` from a
        loss-event IACK: everything strictly between them is missing
        in PKT.SEQ space and should be retransmitted (paper S5.1).
    tack_delay:
        Delay between receipt of the timing reference packet and this
        feedback's departure (paper Fig. 4(b)).
    echo_departure_ts:
        Departure timestamp of the timing reference packet, echoed
        back so the sender can form one RTT sample.
    delivery_rate_bps:
        Receiver-measured delivery rate over the last TACK interval
        (receiver-based rate control, paper S5.3).
    rx_loss_rate:
        Receiver-measured data-path loss rate over the last interval.
    largest_pkt_seq:
        Highest PKT.SEQ seen by the receiver (receipt horizon).
    packet_delays:
        Optional per-packet ``(departure_ts, delay)`` samples — the
        high-overhead alternative the paper describes and rejects in
        S4.3 ("the overhead is high...").  Each entry costs
        :data:`BYTES_PER_DELAY` wire bytes; implemented for the
        overhead-vs-accuracy ablation.
    reason:
        Trigger label for IACKs (``"loss"``, ``"window"``,
        ``"rttmin"``); diagnostic only.
    fb_seq:
        Feedback sequence number: the receiver numbers every feedback
        packet it emits (all flavors share one counter).  Gaps in the
        sequence observed by the sender measure ACK-path loss exactly,
        the way QUIC infers loss from packet-number holes — no guess
        about the expected feedback rate is needed, so the estimate
        stays zero for app-limited flows.
    """

    __slots__ = (
        "cum_ack",
        "awnd",
        "sack_blocks",
        "unacked_blocks",
        "pull_pkt_range",
        "tack_delay",
        "echo_departure_ts",
        "delivery_rate_bps",
        "rx_loss_rate",
        "largest_pkt_seq",
        "packet_delays",
        "reason",
        "fb_seq",
    )

    def __init__(
        self,
        cum_ack: int,
        awnd: int,
        sack_blocks: Optional[list[tuple[int, int]]] = None,
        unacked_blocks: Optional[list[tuple[int, int]]] = None,
        pull_pkt_range: Optional[tuple[int, int]] = None,
        tack_delay: Optional[float] = None,
        echo_departure_ts: Optional[float] = None,
        delivery_rate_bps: Optional[float] = None,
        rx_loss_rate: Optional[float] = None,
        largest_pkt_seq: Optional[int] = None,
        packet_delays: Optional[list[tuple[float, float]]] = None,
        reason: Optional[str] = None,
        fb_seq: Optional[int] = None,
    ):
        self.cum_ack = cum_ack
        self.awnd = awnd
        self.sack_blocks = sack_blocks or []
        self.unacked_blocks = unacked_blocks or []
        self.pull_pkt_range = pull_pkt_range
        self.tack_delay = tack_delay
        self.echo_departure_ts = echo_departure_ts
        self.delivery_rate_bps = delivery_rate_bps
        self.rx_loss_rate = rx_loss_rate
        self.largest_pkt_seq = largest_pkt_seq
        self.packet_delays = packet_delays or []
        self.reason = reason
        self.fb_seq = fb_seq

    def block_count(self) -> int:
        return len(self.sack_blocks) + len(self.unacked_blocks)

    def __repr__(self) -> str:
        return (
            f"AckFeedback(cum_ack={self.cum_ack}, awnd={self.awnd}, "
            f"sack={len(self.sack_blocks)}, unacked={len(self.unacked_blocks)}, "
            f"reason={self.reason})"
        )


def clone_feedback(fb: AckFeedback) -> AckFeedback:
    """Field-by-field copy (block lists copied, not shared).

    Used by the feedback guard to sanitize a frame without mutating
    the receiver's object, and by adversary models / the fuzzer to
    mutate or replay a frame without corrupting the original.
    """
    return AckFeedback(
        cum_ack=fb.cum_ack,
        awnd=fb.awnd,
        sack_blocks=list(fb.sack_blocks),
        unacked_blocks=list(fb.unacked_blocks),
        pull_pkt_range=fb.pull_pkt_range,
        tack_delay=fb.tack_delay,
        echo_departure_ts=fb.echo_departure_ts,
        delivery_rate_bps=fb.delivery_rate_bps,
        rx_loss_rate=fb.rx_loss_rate,
        largest_pkt_seq=fb.largest_pkt_seq,
        packet_delays=list(fb.packet_delays),
        reason=fb.reason,
        fb_seq=fb.fb_seq,
    )


def _require_int(field: str, value: Any) -> None:
    # bool is an int subclass but an awnd of True is garbage, not a
    # window; reject it explicitly.
    if not isinstance(value, int) or isinstance(value, bool):
        raise FeedbackFormatError(field, f"expected int, got {value!r}")


def _require_real(field: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FeedbackFormatError(field, f"expected number, got {value!r}")
    if not isfinite(value):
        raise FeedbackFormatError(field, f"non-finite value {value!r}")


def _require_pair_list(field: str, value: Any, kind) -> None:
    if not isinstance(value, (list, tuple)):
        raise FeedbackFormatError(field, f"expected list, got {value!r}")
    for entry in value:
        if not isinstance(entry, (tuple, list)) or len(entry) != 2:
            raise FeedbackFormatError(field, f"expected 2-tuples, got {entry!r}")
        for part in entry:
            kind(field, part)


def check_wire_form(fb: Any) -> AckFeedback:
    """Structural validation of a decoded feedback frame.

    Returns ``fb`` unchanged when every field has the declared wire
    shape (see :class:`AckFeedback`); raises
    :class:`~repro.transport.errors.FeedbackFormatError` naming the
    first offending field otherwise.  *Values* are not judged here —
    an in-range type-correct lie (an optimistic ``cum_ack``, a
    replayed ``fb_seq``) is the feedback guard's job
    (:mod:`repro.transport.guard`); this function only guarantees the
    sender can consume the frame without a ``TypeError`` escaping the
    event loop.
    """
    if not isinstance(fb, AckFeedback):
        raise FeedbackFormatError("fb", f"expected AckFeedback, got {type(fb).__name__}")
    # A value of the exact built-in type (an empty list, a list of
    # plain int pairs) has the declared shape and passes here; anything
    # else -- a subclass, a bool, a tuple for a list -- is the helper's
    # to accept or to reject naming the field, in the same field order.
    if type(fb.cum_ack) is not int:
        _require_int("cum_ack", fb.cum_ack)
    if type(fb.awnd) is not int:
        _require_int("awnd", fb.awnd)
    # By name, building no tuple per frame.  A block list the helper
    # passes holds pairs, so its loop below reaches the same verdict.
    blocks = fb.sack_blocks
    if type(blocks) is not list:
        _require_pair_list("sack_blocks", blocks, _require_int)
    for e in blocks:    # the receiver's shape needs no second look
        if type(e) is not tuple or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            _require_pair_list("sack_blocks", blocks, _require_int)
            break
    blocks = fb.unacked_blocks
    if type(blocks) is not list:
        _require_pair_list("unacked_blocks", blocks, _require_int)
    for e in blocks:
        if type(e) is not tuple or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            _require_pair_list("unacked_blocks", blocks, _require_int)
            break
    if fb.pull_pkt_range is not None:
        _require_pair_list("pull_pkt_range", [fb.pull_pkt_range], _require_int)
    if (v := fb.tack_delay) is not None and not (type(v) is float and isfinite(v)):
        _require_real("tack_delay", v)
    if (v := fb.echo_departure_ts) is not None and not (type(v) is float and isfinite(v)):
        _require_real("echo_departure_ts", v)
    if (v := fb.delivery_rate_bps) is not None and not (type(v) is float and isfinite(v)):
        _require_real("delivery_rate_bps", v)
    if (v := fb.rx_loss_rate) is not None and not (type(v) is float and isfinite(v)):
        _require_real("rx_loss_rate", v)
    if fb.largest_pkt_seq is not None and type(fb.largest_pkt_seq) is not int:
        _require_int("largest_pkt_seq", fb.largest_pkt_seq)
    if type(fb.packet_delays) is not list or fb.packet_delays:
        _require_pair_list("packet_delays", fb.packet_delays, _require_real)
    if fb.reason is not None and not isinstance(fb.reason, str):
        raise FeedbackFormatError("reason", f"expected str, got {fb.reason!r}")
    if fb.fb_seq is not None and type(fb.fb_seq) is not int:
        _require_int("fb_seq", fb.fb_seq)
    return fb


def feedback_wire_bytes(fb: AckFeedback) -> int:
    """Wire size of an acknowledgment carrying ``fb``.

    The first :data:`FREE_BLOCKS` blocks ride in the base 64-byte ACK;
    each additional block costs :data:`BYTES_PER_BLOCK`, capped at one
    MTU (a TACK cannot exceed a full-sized frame, paper S5.1).
    """
    extra_blocks = max(0, len(fb.sack_blocks) + len(fb.unacked_blocks) - FREE_BLOCKS)
    extra = (extra_blocks * BYTES_PER_BLOCK
             + len(fb.packet_delays) * BYTES_PER_DELAY)
    return min(ACK_PACKET_SIZE + extra, DATA_PACKET_SIZE)


def make_feedback_packet(kind: PacketType, fb: AckFeedback, flow_id: int = 0) -> Packet:
    """Wrap ``fb`` in a wire packet of :func:`feedback_wire_bytes` size."""
    pkt = Packet(kind, feedback_wire_bytes(fb), flow_id=flow_id)
    pkt.meta["fb"] = fb
    return pkt
