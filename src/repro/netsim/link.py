"""Point-to-point wired link: serialization + propagation + queue + loss.

This is the building block of the WAN emulator.  A link is
unidirectional; bidirectional paths are a pair of links (possibly with
different loss models, matching the paper's data-path vs ACK-path
impairments).

Two chaos-plane extensions live here (see :mod:`repro.chaos`):

* a **mutation API** (:meth:`Link.set_rate`, :meth:`Link.set_delay`,
  :meth:`Link.set_loss`) so scripted faults can retune a live link
  instead of rebuilding the topology — rate changes apply from the
  next serialization, delay changes from the next propagation;
* an optional **impairment stage** (:class:`LinkImpairments`) applied
  at ingress like a hardware impairment port: blackout, duplication,
  corruption, reordering, and jitter.  The stage is null-guarded the
  same way telemetry is (``if self._imp is not None``), so an
  unimpaired link pays one attribute test per packet.
"""

from __future__ import annotations

import collections
import heapq
from typing import Callable, Optional

from repro.netsim.engine import Simulator
from repro.netsim.loss import LossModel, RngLike, coerce_rng
from repro.netsim.packet import Packet


class LinkConfig:
    """Static parameters of a wired link."""

    __slots__ = ("rate_bps", "delay_s", "queue_bytes", "loss")

    def __init__(
        self,
        rate_bps: float,
        delay_s: float = 0.0,
        queue_bytes: Optional[int] = None,
        loss: Optional[LossModel] = None,
    ):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if delay_s < 0:
            raise ValueError(f"negative propagation delay: {delay_s}")
        self.rate_bps = float(rate_bps)
        self.delay_s = float(delay_s)
        self.queue_bytes = queue_bytes
        #: Ingress loss model; ``None`` is a lossless link.
        self.loss = loss

    def __repr__(self) -> str:
        return (
            f"LinkConfig(rate={self.rate_bps / 1e6:.3f}Mbps, "
            f"delay={self.delay_s * 1e3:.3f}ms, queue={self.queue_bytes})"
        )


class DropTailQueue:
    """A link's byte-limited FIFO, the paper's emulator queue: the
    waiting packets, their bytes, and the counters.  :meth:`Link.send`
    applies the drop-tail rule; a packet that goes straight onto an
    idle wire counts as enqueued and in the peak.  ``capacity_bytes``
    of ``None`` means unbounded (an access link that is never the
    bottleneck)."""

    __slots__ = ("capacity_bytes", "packets", "bytes_queued", "drops",
                 "enqueued", "peak_bytes")

    def __init__(self, capacity_bytes: Optional[int] = None):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.packets: collections.deque[Packet] = collections.deque()
        self.bytes_queued = 0
        self.drops = 0
        self.enqueued = 0
        self.peak_bytes = 0

    def __len__(self) -> int:
        return len(self.packets)


class LinkImpairments:
    """Mutable impairment knobs a chaos schedule drives on one link.

    All fields default to "no effect"; the injector flips them on for
    the duration of a fault window and back off afterwards.  Random
    decisions (duplicate/corrupt/reorder/jitter draws) come from the
    explicit ``rng``, independent of the loss model's stream.
    """

    __slots__ = ("rng", "blackout", "duplicate_prob", "corrupt_prob",
                 "reorder_prob", "reorder_extra_s", "jitter_s")

    def __init__(self, rng: RngLike):
        self.rng = coerce_rng(rng, "LinkImpairments")
        self.blackout = False          # drop everything at ingress
        self.duplicate_prob = 0.0      # enqueue an extra copy
        self.corrupt_prob = 0.0        # deliver-side drop ("corrupt")
        self.reorder_prob = 0.0        # hold one packet back ...
        self.reorder_extra_s = 0.0     # ... by this much extra delay
        self.jitter_s = 0.0            # uniform [0, jitter_s) per packet

    def active(self) -> bool:
        return (self.blackout or self.duplicate_prob > 0.0
                or self.corrupt_prob > 0.0 or self.reorder_prob > 0.0
                or self.jitter_s > 0.0)

    def clear(self) -> None:
        """Back to pass-through (fault window closed)."""
        self.blackout = False
        self.duplicate_prob = 0.0
        self.corrupt_prob = 0.0
        self.reorder_prob = 0.0
        self.reorder_extra_s = 0.0
        self.jitter_s = 0.0


class Link:
    """Unidirectional link delivering packets to a sink callback.

    Packets are dropped either by the loss model (applied on ingress,
    like a hardware impairment port) or by queue overflow at the
    bottleneck.  Serialization is modeled exactly: the transmitter is
    busy for ``size * 8 / rate`` per packet, then the packet propagates
    for ``delay_s`` and is handed to ``sink``.

    Each leg is one pass: :meth:`send` applies the drop-tail rule and
    puts a packet that finds the wire idle straight onto it; the
    serialization finish schedules the arrival and starts the next
    queued packet; a delivery pops its packet off a FIFO.

    Fleet-scale shards construct and drive thousands of links'
    packets through one process, so the class is slotted; new state
    belongs in the slots tuple, not ad-hoc attributes.
    """

    __slots__ = ("sim", "config", "sink", "name", "queue", "_on_wire",
                 "_in_flight", "_last_arrival", "_overtaking",
                 "packets_sent", "packets_delivered", "packets_lost",
                 "packets_duplicated", "packets_corrupted",
                 "packets_reordered", "bytes_delivered", "_tel",
                 "_tel_stride", "_tel_n", "_imp", "_en")

    def __init__(
        self,
        sim: Simulator,
        config: LinkConfig,
        sink: Optional[Callable[[Packet], None]] = None,
        name: str = "link",
    ):
        self.sim = sim
        self.config = config
        self.sink = sink
        self.name = name
        self.queue = DropTailQueue(config.queue_bytes)
        # The packet being serialized, ``None`` while the transmitter
        # is idle (and the queue empty): the finish event needs no
        # closure to know which.
        self._on_wire: Optional[Packet] = None
        # Propagating packets in arrival order (the engine fires equal
        # times in scheduling order), and the last one's arrival time;
        # a packet due earlier than that (set_delay lowered, jitter,
        # reordering) waits in a heap in the engine's own firing
        # order, ``(arrival, event seq, packet)``.
        self._in_flight: collections.deque[Packet] = collections.deque()
        self._last_arrival = 0.0
        self._overtaking: list[tuple[float, int, Packet]] = []
        # counters
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_lost = 0
        self.packets_duplicated = 0
        self.packets_corrupted = 0
        self.packets_reordered = 0
        self.bytes_delivered = 0
        # telemetry: one None-check per packet event when disabled.
        # Per-packet events sample through a site-local stride counter
        # (see TraceCollector.sampling_stride): stride 0 = never emit.
        self._tel = sim.telemetry
        self._tel_stride = (self._tel.sampling_stride("netsim")
                            if self._tel is not None else 0)
        self._tel_n = 0
        # energy/airtime ledger: same null-guard pattern.
        self._en = sim.energy
        # chaos impairment stage: same null-guard pattern.
        self._imp: Optional[LinkImpairments] = None
        if sim.san is not None:
            sim.san.register_link(self)

    # ------------------------------------------------------------------
    def connect(self, sink: Callable[[Packet], None]) -> None:
        """Attach the receive-side callback."""
        self.sink = sink

    # ------------------------------------------------------------------
    # chaos mutation API
    # ------------------------------------------------------------------
    def set_rate(self, rate_bps: float) -> None:
        """Retune the serialization rate; applies from the next packet
        clocked onto the wire (an in-flight serialization finishes at
        the old rate, like a real shaper reconfiguration)."""
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        self.config.rate_bps = float(rate_bps)

    def set_delay(self, delay_s: float) -> None:
        """Retune the propagation delay; applies from the next packet
        finishing serialization."""
        if delay_s < 0:
            raise ValueError(f"negative propagation delay: {delay_s}")
        self.config.delay_s = float(delay_s)

    def set_loss(self, model: Optional[LossModel]) -> Optional[LossModel]:
        """Swap the ingress loss model (``None``: lossless); returns the
        previous one so a fault window can restore it when it closes."""
        previous = self.config.loss
        self.config.loss = model
        return previous

    def impairments(self, rng: RngLike) -> LinkImpairments:
        """Attach (or return the existing) impairment stage.

        The first call installs the stage with ``rng``; later calls
        return the same object so composed faults share one stage.
        """
        if self._imp is None:
            self._imp = LinkImpairments(rng)
        return self._imp

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link.

        Returns ``False`` if it was dropped at ingress (loss model,
        blackout, or full queue); the caller must not assume delivery
        either way.
        """
        self.packets_sent += 1
        imp = self._imp
        if imp is not None and imp.blackout:
            self._drop(packet, "blackout")
            return False
        loss = self.config.loss
        if loss is not None and loss.should_drop(packet, self.sim.clock._now):
            self._drop(packet, "loss")
            return False
        # Drop-tail: the bytes waiting behind the wire, this packet
        # counted, against the capacity.
        queue = self.queue
        size = packet.size
        queued_bytes = queue.bytes_queued + size
        if queue.capacity_bytes is not None and queued_bytes > queue.capacity_bytes:
            queue.drops += 1
            self._drop(packet, "queue")
            return False
        queue.enqueued += 1
        if queued_bytes > queue.peak_bytes:
            queue.peak_bytes = queued_bytes
        # Hot path: the site-local stride counter decides keep/drop
        # with plain attribute arithmetic, so a sampled-out event
        # costs neither a collector call nor its field dict (see
        # TraceCollector.sampling_stride).
        if self._tel_stride:
            n = self._tel_n + 1
            if n >= self._tel_stride:
                self._tel_n = 0
                self._tel.emit_kept("netsim", "enqueue", packet.flow_id,
                                    link=self.name, kind=packet.kind.value,
                                    size=size, queued_bytes=queued_bytes)
            else:
                self._tel_n = n
        if (imp is not None and imp.duplicate_prob > 0.0
                and imp.rng.random() < imp.duplicate_prob):
            # A duplicated packet consumes queue space and airtime like
            # any other; overflow silently cancels the duplication.
            queued_bytes += size
            if (queue.capacity_bytes is not None
                    and queued_bytes > queue.capacity_bytes):
                queue.drops += 1
            else:
                queue.packets.append(packet)
                queue.bytes_queued += size
                queue.enqueued += 1
                queue.peak_bytes = max(queue.peak_bytes, queued_bytes)
                self.packets_duplicated += 1
        if self._on_wire is not None:
            queue.packets.append(packet)
            queue.bytes_queued += size
            return True
        # Idle transmitter, empty queue: straight onto the wire.
        if self._tel_stride:
            n = self._tel_n + 1
            if n >= self._tel_stride:
                self._tel_n = 0
                self._tel.emit_kept("netsim", "tx_start", packet.flow_id,
                                    link=self.name, kind=packet.kind.value,
                                    size=size)
            else:
                self._tel_n = n
        if self._en is not None:
            self._en.on_tx(packet)
        self._on_wire = packet
        sim = self.sim
        sim.call_at(sim.clock._now + size * 8.0 / self.config.rate_bps,
                    self._finish_transmission)
        return True

    def _drop(self, packet: Packet, reason: str) -> None:
        """Count one lost packet and trace why (off the per-packet hot
        path, so the stride tick may be a call here)."""
        self.packets_lost += 1
        if self._tel_stride and self._tick():
            self._tel.emit_kept("netsim", "drop", packet.flow_id,
                                link=self.name, reason=reason,
                                kind=packet.kind.value, size=packet.size,
                                pkt_seq=packet.pkt_seq)

    def _tick(self) -> bool:
        """Advance the netsim stride counter; ``True`` = keep.  Only
        call when ``self._tel_stride`` is non-zero."""
        n = self._tel_n + 1
        if n >= self._tel_stride:
            self._tel_n = 0
            return True
        self._tel_n = n
        return False

    # ------------------------------------------------------------------
    def _finish_transmission(self) -> None:
        """The packet on the wire is serialized: schedule its arrival
        (or lose it to corruption), then clock out the next one."""
        packet = self._on_wire
        sim = self.sim
        now = sim.clock._now
        extra = 0.0 if self._imp is None else self._propagation_impairment(packet)
        if extra is None:
            # Corruption: the packet evaporates mid-flight.
            self.packets_corrupted += 1
            self._drop(packet, "corrupt")
        else:
            # call_at, not call_in: its not-in-the-past test also
            # rejects the negative or NaN delay the extra frame would
            # test for.
            t = now + (self.config.delay_s + extra)
            if t >= self._last_arrival:
                self._in_flight.append(packet)
                self._last_arrival = t
                sim.call_at(t, self._deliver)
            else:
                heapq.heappush(self._overtaking, (
                    t, sim.call_at(t, self._deliver_overtaking)[1], packet))
        queue = self.queue
        if not queue.packets:
            if self._tel_stride and self._tick():
                self._tel.emit_kept("netsim", "idle", 0, link=self.name)
            self._on_wire = None
            return
        packet = queue.packets.popleft()
        size = packet.size
        queue.bytes_queued -= size
        if self._tel_stride:
            n = self._tel_n + 1
            if n >= self._tel_stride:
                self._tel_n = 0
                self._tel.emit_kept("netsim", "tx_start", packet.flow_id,
                                    link=self.name, kind=packet.kind.value,
                                    size=size)
            else:
                self._tel_n = n
        if self._en is not None:
            self._en.on_tx(packet)
        self._on_wire = packet
        sim.call_at(now + size * 8.0 / self.config.rate_bps,
                    self._finish_transmission)

    def _propagation_impairment(self, packet: Packet) -> Optional[float]:
        """Extra propagation delay from the impairment stage, or
        ``None`` when the packet is corrupted away."""
        imp = self._imp
        extra = 0.0
        if imp.corrupt_prob > 0.0 and imp.rng.random() < imp.corrupt_prob:
            return None
        if imp.jitter_s > 0.0:
            extra += imp.rng.random() * imp.jitter_s
        if imp.reorder_prob > 0.0 and imp.rng.random() < imp.reorder_prob:
            self.packets_reordered += 1
            extra += imp.reorder_extra_s
        return extra

    def _deliver_overtaking(self) -> None:
        """Deliver the earliest overtaking packet: the engine fires
        their events in ``(time, seq)`` order, the heap's own."""
        self._in_flight.appendleft(heapq.heappop(self._overtaking)[2])
        self._deliver()

    def _deliver(self) -> None:
        packet = self._in_flight.popleft()
        self.packets_delivered += 1
        self.bytes_delivered += packet.size
        packet.hops += 1
        if self._tel_stride:
            n = self._tel_n + 1
            if n >= self._tel_stride:
                self._tel_n = 0
                self._tel.emit_kept("netsim", "delivered", packet.flow_id,
                                    link=self.name, kind=packet.kind.value,
                                    size=packet.size)
            else:
                self._tel_n = n
        if self._en is not None:
            self._en.on_rx(packet)
        if self.sink is not None:
            self.sink(packet)

    def __repr__(self) -> str:
        return f"Link({self.name}, {self.config!r})"
