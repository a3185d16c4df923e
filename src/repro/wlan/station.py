"""Wireless station: MAC queue, backoff state, and A-MPDU aggregation.

A :class:`Station` is a netsim "port": upper layers call ``send`` and
register a sink with ``connect``.  Frames destined to the station's
peer wait in a FIFO; when the station wins a contention round it
transmits an A-MPDU of up to the PHY's aggregation limit and the peer's
sink receives every MPDU that survived (collision kills the whole PPDU,
PHY noise kills individual MPDUs).

A station with an ``ingress_delay_s`` keys each frame at ``send`` as a
delay pipe's event would have been keyed; the medium admits it at its
own events, and arms a wake only while idle (DESIGN.md S3).
"""

from __future__ import annotations

import collections
import random
from typing import Callable, Optional

from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet
from repro.wlan.medium import WirelessMedium


class TxOp:
    """One transmission opportunity: the MPDUs of a single PPDU."""

    __slots__ = ("packets", "total_mpdu_bytes")

    def __init__(self, packets: list[Packet], total_mpdu_bytes: int):
        self.packets = packets
        self.total_mpdu_bytes = total_mpdu_bytes


class Station:
    """A contender on a :class:`~repro.wlan.medium.WirelessMedium`.

    Parameters
    ----------
    medium:
        Collision domain to join.
    name:
        Diagnostic label.
    queue_frames:
        MAC queue depth in frames; arrivals beyond it are dropped
        (models the NIC ring).  ``None`` means unbounded.
    aggregate:
        When ``False`` the station never aggregates even on n/ac PHYs
        (used by the "no-aggregation" ablation).
    ingress_delay_s:
        Positive: fixed delay between ``send`` and reaching the queue.
    """

    SMALL_FRAME_BYTES = 200
    """Frames below this size count as transport control (ACKs)."""

    def __init__(
        self,
        medium: WirelessMedium,
        name: str = "sta",
        queue_frames: Optional[int] = 1024,
        aggregate: bool = True,
        control_aggregate_limit: Optional[int] = None,
        rate_adaptation: bool = False,
        ingress_delay_s: float = 0.0,
    ):
        self.medium = medium
        self.phy = medium.phy
        self.name = name
        self.queue_frames = queue_frames
        self.aggregate = aggregate
        # Minstrel-lite rate adaptation: step down the MCS ladder after
        # consecutive failed TXOPs (collisions / PHY errors), probe
        # back up after a run of successes.  Off by default — the
        # headline experiments use a fixed MCS like the paper's Fig. 7.
        self.rate_adaptation = rate_adaptation
        self._rate_table = self.phy.rate_table()
        self._rate_index = 0
        self._consec_fail = 0
        self._consec_ok = 0
        # Optional cap on small control frames (transport ACKs) per
        # TXOP, for ablating reverse-path aggregation depth; ``None``
        # (default) lets ACKs aggregate like any other frame.
        self.control_aggregate_limit = control_aggregate_limit
        self.peer: Optional["Station"] = None
        self._peer_map: Optional[dict[int, "Station"]] = None
        self._sink: Optional[Callable[[Packet], None]] = None
        self._queue: collections.deque[Packet] = collections.deque()
        # ``[due, seq, packet]`` in key order, and the armed wake.
        self.ingress_delay_s = ingress_delay_s
        self._ingress: collections.deque[list] = collections.deque()
        self._wake: Optional[list] = None
        if ingress_delay_s > 0:
            self.send = self._send_later
        # DCF state
        self.backoff_slots = -1  # -1 means "no backoff drawn"
        self._cw = self.phy.cw_min
        self._retries = 0
        self._inflight: Optional[TxOp] = None
        # statistics
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped_queue = 0
        self.frames_dropped_retry = 0
        self.bytes_delivered = 0
        self.txops_won = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def set_peer(self, peer: "Station") -> None:
        """Point this station's transmissions at ``peer``."""
        self.peer = peer

    def set_peer_map(self, peer_map: dict[int, "Station"]) -> None:
        """Infrastructure mode: route frames to peers by ``flow_id``
        (an AP serving several clients).  ``peer`` stays the fallback
        for unmapped flows.  Enables per-receiver queueing so A-MPDUs
        (single-RA by standard) aggregate fully even with interleaved
        downlink traffic — real APs keep per-RA/TID queues."""
        self._peer_map = peer_map
        self._dest_queues: collections.OrderedDict[int, collections.deque] = (
            collections.OrderedDict()
        )

    def peer_for(self, packet: Packet) -> Optional["Station"]:
        if self._peer_map is not None:
            mapped = self._peer_map.get(packet.flow_id)
            if mapped is not None:
                return mapped
        return self.peer

    def connect(self, sink: Callable[[Packet], None]) -> None:
        """Register the upper-layer receive callback."""
        self._sink = sink

    # ------------------------------------------------------------------
    # netsim port interface
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for transmission to the peer."""
        queue = self._queue if self._peer_map is None else self._dest_queue(packet)
        if self.queue_frames is not None and len(queue) >= self.queue_frames:
            self.frames_dropped_queue += 1
            return False
        queue.append(packet)
        medium = self.medium
        if not (medium.busy or medium.round_scheduled):
            medium.notify_backlog()
        return True

    def _dest_queue(self, packet: Packet) -> "collections.deque[Packet]":
        """Infrastructure mode: the queue of ``packet``'s receiver."""
        return self._dest_queues.setdefault(id(self.peer_for(packet)),
                                            collections.deque())

    def _send_later(self, packet: Packet) -> bool:
        """``send`` with an ingress delay: no push unless idle."""
        sim, medium, ingress = self.medium.sim, self.medium, self._ingress
        ingress.append([sim.clock._now + self.ingress_delay_s, next(sim._seq), packet])
        if len(ingress) == 1 and not (medium.busy or medium.round_scheduled):
            self._arm_wake()
        return True

    def settle(self, key: list) -> None:
        """Admit the frames keyed below ``key`` (a medium event's entry;
        ``[now, inf]`` at a ``run(until=)`` horizon) as busy ``send``s."""
        ingress, cap = self._ingress, self.queue_frames
        queue, mapped = self._queue, self._peer_map is not None
        while ingress and ingress[0] < key:
            packet = ingress.popleft()[2]
            packet.hops += 1
            if mapped:
                queue = self._dest_queue(packet)
            if cap is not None and len(queue) >= cap:
                self.frames_dropped_queue += 1
            else:
                queue.append(packet)

    def _arm_wake(self) -> None:
        """Idle medium: arm the head's arrival at its key (via the
        engine's own call_at: an override could not take ``seq``)."""
        if self._ingress and self._wake is None:
            due, seq, _ = self._ingress[0]
            self._wake = Simulator.call_at(self.medium.sim, due,
                                           self._on_wake, seq)

    def _on_wake(self) -> None:
        self._wake = None
        due, seq, _ = self._ingress[0]
        self.settle([due, seq + 1])     # the head alone: seqs are unique
        self.medium.notify_backlog()    # a round, or if dropped the next wake

    def _select_queue(self) -> "collections.deque[Packet]":
        """The queue the next TXOP draws from: round-robin over
        per-destination queues in infrastructure mode."""
        if self._peer_map is None:
            return self._queue
        for key in list(self._dest_queues):
            queue = self._dest_queues[key]
            self._dest_queues.move_to_end(key)
            if queue:
                return queue
        return self._queue

    # ------------------------------------------------------------------
    # DCF hooks called by the medium
    # ------------------------------------------------------------------
    def has_backlog(self) -> bool:
        if self._inflight is not None:
            return True
        if self._peer_map is not None and any(self._dest_queues.values()):
            return True
        return bool(self._queue)

    def ensure_backoff(self, rng: random.Random) -> None:
        """Draw a fresh backoff counter if none is pending."""
        if self.backoff_slots < 0:
            self.backoff_slots = rng.randint(0, self._cw)

    def begin_txop(self) -> TxOp:
        """Called when this station won the round; builds the A-MPDU."""
        self.txops_won += 1
        if self._inflight is not None:
            # Retransmission of the collided PPDU.
            return self._inflight
        phy = self.phy
        limit = phy.max_ampdu_frames if self.aggregate else 1
        byte_limit = phy.max_ampdu_bytes if self.aggregate else None
        queue = self._select_queue()
        packets: list[Packet] = []
        total = 0
        small = 0
        # Without a peer map every frame goes to ``peer``; frames of a
        # TXOP mostly share a size, whose MPDU size is kept.
        mapped = self._peer_map is not None
        dest: Optional["Station"] = None
        size = mpdu = -1
        while queue and len(packets) < limit:
            nxt = queue[0]
            if packets and mapped and self.peer_for(nxt) is not dest:
                # An A-MPDU addresses a single receiver; frames for a
                # different client wait for their own TXOP.
                break
            if (
                packets
                and self.control_aggregate_limit is not None
                and nxt.size < self.SMALL_FRAME_BYTES
                and small >= self.control_aggregate_limit
            ):
                break
            if nxt.size != size:
                size = nxt.size
                mpdu = phy.mpdu_bytes(size)
            if packets and byte_limit is not None and total + mpdu > byte_limit:
                break
            if size < self.SMALL_FRAME_BYTES:
                small += 1
            if not packets and mapped:
                dest = self.peer_for(nxt)
            packets.append(queue.popleft())
            total += mpdu
        txop = TxOp(packets, total)
        self._inflight = txop
        return txop

    def txop_succeeded(self, txop: TxOp, errored: list[bool]) -> None:
        """PPDU delivered; MPDUs flagged in ``errored`` were corrupted
        by PHY noise and are retried via the MAC (simplified: requeued
        at the head once, then dropped)."""
        self._inflight = None
        self._cw = self.phy.cw_min
        self._retries = 0
        self.backoff_slots = -1
        retry: list[Packet] = []
        mapped = self._peer_map is not None
        receiver = self.peer
        for packet, bad in zip(txop.packets, errored):
            self.frames_sent += 1
            if bad:
                if packet.meta.get("mac_retried"):
                    self.frames_dropped_retry += 1
                else:
                    packet.meta["mac_retried"] = True
                    retry.append(packet)
            else:
                if mapped:
                    receiver = self.peer_for(packet)
                if receiver is not None:    # hand it to the receiver's sink
                    receiver.frames_delivered += 1
                    receiver.bytes_delivered += packet.size
                    packet.hops += 1
                    if receiver._sink is not None:
                        receiver._sink(packet)
        for packet in reversed(retry):
            (self._dest_queue(packet) if mapped else self._queue).appendleft(packet)
        if self.has_backlog():
            self.medium.notify_backlog()

    def txop_collided(self, txop: TxOp) -> None:
        """PPDU collided; double the contention window and retry the
        same aggregate, up to the PHY retry limit."""
        self._retries += 1
        if self._retries > self.phy.retry_limit:
            self.frames_dropped_retry += len(txop.packets)
            self._inflight = None
            self._retries = 0
            self._cw = self.phy.cw_min
        else:
            self._cw = min(self._cw * 2 + 1, self.phy.cw_max)
        self.backoff_slots = -1
        if self.has_backlog():
            self.medium.notify_backlog()

    # ------------------------------------------------------------------
    # rate adaptation
    # ------------------------------------------------------------------
    def current_rate_bps(self) -> float:
        """MCS rate the next PPDU is modulated at."""
        if not self.rate_adaptation:
            return self.phy.phy_rate_bps
        return self._rate_table[self._rate_index]

    def note_tx_outcome(self, ok: bool) -> None:
        """Feed one TXOP outcome into the Minstrel-lite ladder."""
        if not self.rate_adaptation:
            return
        if ok:
            self._consec_ok += 1
            self._consec_fail = 0
            if self._consec_ok >= 10 and self._rate_index > 0:
                self._rate_index -= 1
                self._consec_ok = 0
        else:
            self._consec_fail += 1
            self._consec_ok = 0
            if self._consec_fail >= 2 and self._rate_index < len(self._rate_table) - 1:
                self._rate_index += 1
                self._consec_fail = 0

    def __repr__(self) -> str:
        return f"Station({self.name}, queued={len(self._queue)})"


def wireless_pair(
    medium: WirelessMedium,
    name_a: str = "ap",
    name_b: str = "sta",
    queue_frames: Optional[int] = 1024,
    aggregate: bool = True,
    ingress_delay_s: float = 0.0,
) -> tuple[Station, Station]:
    """Create two peered stations on ``medium`` (e.g. AP and client)."""
    a = Station(medium, name_a, queue_frames, aggregate,
                ingress_delay_s=ingress_delay_s)
    b = Station(medium, name_b, queue_frames, aggregate)
    a.set_peer(b)
    b.set_peer(a)
    medium.register(a)
    medium.register(b)
    return a, b
