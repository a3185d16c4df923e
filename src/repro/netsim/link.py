"""Point-to-point wired link: serialization + propagation + queue + loss.

This is the building block of the WAN emulator.  A link is
unidirectional; bidirectional paths are a pair of links (possibly with
different loss models, matching the paper's data-path vs ACK-path
impairments).

Two chaos-plane extensions live here (see :mod:`repro.chaos`):

* a **mutation API** (:meth:`Link.set_rate`, :meth:`Link.set_delay`,
  :meth:`Link.set_loss`) so scripted faults can retune a live link
  instead of rebuilding the topology — rate changes apply from the
  next packet to start serializing, delay changes from the next to
  finish, and the packets already timed are re-timed;
* an optional **impairment stage** (:class:`LinkImpairments`) applied
  at ingress like a hardware impairment port: blackout, duplication,
  corruption, reordering, and jitter, every draw made when the packet
  is accepted.  The stage is null-guarded the same way telemetry is
  (``if self._imp is not None``), so an unimpaired link pays one
  attribute test per packet.
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
    """A link's byte-limited FIFO, the paper's emulator queue:
    ``waiting`` holds a ``(start, size, packet, extra, arrival)`` entry
    per transmission :meth:`Link.send` accepted (``extra`` the added
    delay, ``None`` when corrupted: no ``arrival`` event), popped
    lazily once started (:meth:`settle`; ``waiting_bytes`` counts it
    until then, ``head`` is the last popped).  A packet that finds the
    wire idle counts in ``enqueued`` and the peak as if it had waited.
    ``capacity_bytes`` of ``None`` means unbounded (an access link that
    is never the bottleneck)."""

    __slots__ = ("capacity_bytes", "waiting", "waiting_bytes", "head",
                 "drops", "enqueued", "peak_bytes")

    def __init__(self, capacity_bytes: Optional[int] = None):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.waiting: collections.deque[tuple] = collections.deque()
        self.waiting_bytes = 0
        self.head: Optional[tuple] = None
        self.drops = 0
        self.enqueued = 0
        self.peak_bytes = 0

    def settle(self, now: float) -> int:
        """Pop the entries that have started by ``now`` and return the
        bytes of those that have not.  Tie rule: an entry whose start is
        ``now`` has started."""
        waiting = self.waiting
        while waiting and waiting[0][0] <= now:
            self.head = waiting.popleft()
            self.waiting_bytes -= self.head[1]
        return self.waiting_bytes


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

    A packet costs one event, its arrival: :meth:`send` applies the
    ingress and drop-tail tests, times it (``start = max(now,
    busy_until)``, ``finish = start + size * 8 / rate``) and schedules
    ``finish + (delay + extra)``; a delivery pops a FIFO.

    Fleet-scale shards construct and drive thousands of links'
    packets through one process, so the class is slotted; new state
    belongs in the slots tuple, not ad-hoc attributes.
    """

    __slots__ = ("sim", "config", "sink", "name", "queue", "_busy_until",
                 "_in_flight", "_last_arrival", "_overtaking",
                 "packets_sent", "packets_delivered", "packets_lost",
                 "packets_duplicated", "packets_corrupted",
                 "packets_reordered", "bytes_delivered", "_tel",
                 "_tel_stride", "_tel_n", "_imp", "_en",
                 "__weakref__")   # the sanitizer's audit list

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
        self._busy_until = 0.0      # the last accepted packet's finish
        # Scheduled packets in arrival order (the engine fires equal
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
        self._retime(rerate=True)

    def set_delay(self, delay_s: float) -> None:
        """Retune the propagation delay; applies from the next packet
        finishing serialization."""
        if delay_s < 0:
            raise ValueError(f"negative propagation delay: {delay_s}")
        self.config.delay_s = float(delay_s)
        self._retime(rerate=False)

    def _retime(self, rerate: bool) -> None:
        """Re-time the packets a retune reaches: the waiting ones, and
        for a delay also the one on the wire (``head``, which finishes
        when the first waiting one starts).  Under a new rate each
        waiting packet starts when the one before it finishes.

        They are the newest transmissions, so those on the FIFO are its
        tail: their arrivals are cancelled, taken off the FIFO and the
        heap, and scheduled again in send order.  ``_last_arrival`` is
        kept (an upper bound on what stays on the FIFO), so one due
        earlier goes on the heap: the engine's firing order either way.
        """
        queue, sim, now = self.queue, self.sim, self.sim.clock._now
        queue.settle(now)
        entries = list(queue.waiting)
        on_wire = (not rerate and queue.head is not None
                   and (entries[0][0] if entries else self._busy_until) > now)
        if on_wire:
            entries.insert(0, queue.head)
        if rerate and entries:
            start = entries[0][0]
            for i, (_, size, *rest) in enumerate(entries):
                entries[i] = (start, size, *rest)
                start += size * 8.0 / self.config.rate_bps
            self._busy_until = start
        leaving = {e[4][1] for e in entries if e[4] is not None}
        overtaking = [e for e in self._overtaking if e[1] not in leaving]
        for _ in range(len(leaving) - len(self._overtaking) + len(overtaking)):
            self._in_flight.pop()
        self._overtaking = overtaking
        heapq.heapify(overtaking)
        for i, (start, size, packet, extra, arrival) in enumerate(entries):
            if arrival is not None:
                sim.cancel(arrival)
                finish = (entries[i + 1][0] if i + 1 < len(entries)
                          else self._busy_until)
                entries[i] = (start, size, packet, extra, self._schedule(
                    packet, finish + (self.config.delay_s + extra)))
        if on_wire:
            queue.head = entries.pop(0)
        queue.waiting = collections.deque(entries)

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
        now = self.sim.clock._now
        loss = self.config.loss
        if loss is not None and loss.should_drop(packet, now):
            self._drop(packet, "loss")
            return False
        # Drop-tail: the bytes not yet started, this packet counted,
        # against the capacity.
        queue = self.queue
        size = packet.size
        queued_bytes = queue.settle(now) + size
        if (queue.capacity_bytes is not None
                and queued_bytes > queue.capacity_bytes):
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
        # Time each copy (a duplicate is the second) and schedule its
        # arrival; a corrupted one takes its turn on the wire, is lost.
        for extra in ((0.0,) if imp is None
                      else self._impair(imp, queue, size, queued_bytes)):
            start = self._busy_until
            if start < now:
                start = now
            self._busy_until = finish = (
                start + size * 8.0 / self.config.rate_bps)
            if extra is None:
                arrival = None
                self.packets_corrupted += 1
                self._drop(packet, "corrupt")
            else:
                # call_at, not call_in: its not-in-the-past test also
                # rejects the negative or NaN delay the extra frame
                # would test for.
                arrival = self._schedule(
                    packet, finish + (self.config.delay_s + extra))
            queue.waiting.append((start, size, packet, extra, arrival))
            queue.waiting_bytes += size
            if self._tel_stride and self._tick():
                self._tel.emit_kept("netsim", "tx_start", packet.flow_id,
                                    link=self.name, kind=packet.kind.value,
                                    size=size)
            if self._en is not None:
                self._en.on_tx(packet)
        return True

    def _impair(self, imp: LinkImpairments, queue: DropTailQueue,
                size: int, queued_bytes: int) -> list:
        """The impairment stage's draws for one accepted packet: the
        duplicate draw, then each copy's corrupt, jitter and reorder
        draws.  Returns each copy's extra delay, ``None`` if corrupted.
        """
        extras = [0.0]
        if imp.duplicate_prob > 0.0 and imp.rng.random() < imp.duplicate_prob:
            # A duplicated packet consumes queue space and airtime like
            # any other; overflow silently cancels it.
            queued_bytes += size
            if (queue.capacity_bytes is not None
                    and queued_bytes > queue.capacity_bytes):
                queue.drops += 1
            else:
                queue.enqueued += 1
                queue.peak_bytes = max(queue.peak_bytes, queued_bytes)
                self.packets_duplicated += 1
                extras.append(0.0)
        for i in range(len(extras)):
            if imp.corrupt_prob > 0.0 and imp.rng.random() < imp.corrupt_prob:
                extras[i] = None
                continue
            if imp.jitter_s > 0.0:
                extras[i] += imp.rng.random() * imp.jitter_s
            if imp.reorder_prob > 0.0 and imp.rng.random() < imp.reorder_prob:
                self.packets_reordered += 1
                extras[i] += imp.reorder_extra_s
        return extras

    def _schedule(self, packet: Packet, t: float) -> list:
        """Put ``packet``'s arrival at ``t`` on the FIFO or, due before
        its last arrival, the overtaking heap."""
        if t >= self._last_arrival:
            self._in_flight.append(packet)
            self._last_arrival = t
            return self.sim.call_at(t, self._deliver)
        arrival = self.sim.call_at(t, self._deliver_overtaking)
        heapq.heappush(self._overtaking, (t, arrival[1], packet))
        return arrival

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
