"""simsan: runtime invariant checks for the TACK simulator.

The sanitizer validates, *while a simulation runs*, the invariants the
paper's correctness rests on:

``event_clock``
    Events fire in non-decreasing simulated time, never at a negative
    or non-finite instant, and under their own key: an event never
    fires while its entry carries a move mark (``Simulator.move``).
``pkt_seq_monotone``
    ``PKT.SEQ`` strictly increases per flow (paper S5.1 — this is what
    removes retransmission ambiguity for receiver-based loss
    detection), and stream ``seq``/lengths are sane.
``cum_ack_monotone``
    The sender's cumulative-ack point never moves backward.
``byte_conservation``
    Sender ledger identity: every byte between ``cum_acked`` and
    ``next_seq`` is covered by exactly one live send record
    (sent = delivered + lost + in-flight), and the incremental
    ``in_flight`` counter matches the records.
``scoreboard_index``
    The sender's incremental SACK/RACK structures agree with a
    brute-force pass over its send records: the SACKED coverage is the
    union of the SACKED records, and the hole list is exactly the
    records below the SACK frontier that are not SACKED.
``rack_index``
    Every ``IN_FLIGHT`` hole has an entry in the sender's RACK index
    (first sends or repairs) carrying its current ``last_sent`` and
    ``pkt_seq``, and its governor time is that of its last repair.
``gap_cache``
    A reused unacked walk equals a fresh one, and first-seen times are
    kept for exactly its gaps.
``stamp_store``
    The feedback guard's departure stamps are sorted without repeats,
    its head index lies inside the array, and from the head on it holds
    exactly the departures (as this sanitizer saw them) no older than
    the last one minus ``echo_window_s``.
``interval_count``
    The reassembly buffer's maintained ``covered()`` counter equals the
    brute-force sum over its ranges.
``stream_conservation``
    The receiver never holds more stream bytes than the sender
    injected (checked against that brute-force sum, not the counter).
``nonneg_rwnd`` / ``nonneg_pacing``
    Advertised windows, pacing rates, and congestion windows stay
    non-negative (cwnd strictly positive).
``rtt_min_window``
    The windowed RTT_min estimate never exceeds the smallest raw RTT
    sample observed within the trailing tau window (S5.2: RTT_min is
    non-increasing until samples age out).
``rto_armed``
    At the end of every processed feedback an open sender with bytes in
    flight or a retransmission queued has a pending retransmission
    timeout, and after a feedback that made progress the timeout is due
    one RTO from now (the deadline is moved, not re-created; a move
    that was skipped or applied to a dead event shows here).

``link_queue``
    Every Nth event, a wired link's counted bytes are its ``(start,
    size)`` entries' sizes, and those of the entries not yet started
    are within capacity; the starts never decrease and none is after
    ``busy_until``; and each packet enqueued is scheduled (waiting, on
    the wire or propagating), delivered or corrupted.

``doctor_state``
    After every event the live flow doctor folds, the flow's timeline
    state is the one its flags classify to — so a handler wrongly
    marked "cannot change the class" (``diagnose.engine.VOCABULARY``)
    fails here instead of shifting a report digest.

Checks are wired through ``if self._san is not None`` guards at the
hook sites, so a disabled sanitizer costs one attribute test per
event/packet — measured well under the 5% budget.
"""

from __future__ import annotations

import collections
import math
import weakref
from typing import Deque, Optional, Tuple

#: Absolute slack for float comparisons on clock-derived quantities.
_EPS = 1e-9

#: Expensive audits run every Nth feedback per flow, or event (links).
LEDGER_CHECK_PERIOD = 32


class InvariantViolation(AssertionError):
    """A simulation invariant failed.

    Attributes
    ----------
    invariant:
        Stable name of the violated invariant (e.g. ``pkt_seq_monotone``).
    sim_time:
        Simulated time of the violation in seconds.
    flow_id:
        Flow the violation belongs to, or ``None`` for engine-global
        invariants.
    detail:
        Human-readable specifics (observed vs expected values).
    """

    def __init__(self, invariant: str, sim_time: float,
                 flow_id: Optional[int], detail: str):
        self.invariant = invariant
        self.sim_time = sim_time
        self.flow_id = flow_id
        self.detail = detail
        flow = "engine" if flow_id is None else f"flow {flow_id}"
        super().__init__(
            f"[simsan] {invariant} violated at t={sim_time:.9f} ({flow}): {detail}"
        )


class _FlowState:
    """Per-flow bookkeeping the sanitizer needs across hook calls."""

    __slots__ = ("last_pkt_seq", "last_cum_ack", "last_delivered_ptr",
                 "feedbacks_seen", "rtt_samples", "departures")

    def __init__(self):
        self.last_pkt_seq = 0
        self.last_cum_ack = 0
        self.last_delivered_ptr = 0
        self.feedbacks_seen = 0
        # Monotonic (time, sample) deque: values non-decreasing front to
        # back, so the front is the window minimum in O(1).  A newer,
        # smaller sample dominates (and outlives) anything larger behind
        # it, so popping those from the back loses nothing.
        self.rtt_samples: Deque[Tuple[float, float]] = collections.deque()
        # A guarded TACK sender's departures in its echo window.
        self.departures: Deque[float] = collections.deque()

    def push_rtt_sample(self, now: float, sample: float) -> None:
        samples = self.rtt_samples
        while samples and samples[-1][1] >= sample:
            samples.pop()
        samples.append((now, sample))


class SimSanitizer:
    """Invariant checker attached to one :class:`Simulator`.

    The engine and the transport endpoints call the ``on_*`` hooks;
    each hook either returns silently or raises
    :class:`InvariantViolation`.  One sanitizer instance serves every
    flow on the simulator.
    """

    def __init__(self, sim):
        # A proxy: the simulator owns its sanitizer (``Simulator.san``),
        # and a strong edge back would hold both in a cycle.
        self.sim = weakref.proxy(sim)
        self._last_event_time = -math.inf
        # States are keyed by endpoint *object*: several endpoints may
        # legitimately share a flow_id on one simulator (unit tests,
        # multi-connection scenarios).  Weak keys let torn-down
        # endpoints disappear without unbounded growth.
        self._senders: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._receivers: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._peer_sender: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._links: list = []
        self.checks_run = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_sender(self, sender) -> None:
        self._senders.setdefault(sender, _FlowState())

    def register_receiver(self, receiver) -> None:
        self._receivers.setdefault(receiver, _FlowState())

    def register_pair(self, sender, receiver) -> None:
        """Link the two endpoints of a connection so cross-endpoint
        conservation (receiver never holds more than the sender
        injected) can be checked."""
        self.register_sender(sender)
        self.register_receiver(receiver)
        self._peer_sender[receiver] = weakref.ref(sender)

    def register_link(self, link) -> None:
        """Audit ``link`` from :meth:`on_event`, so its own per-packet
        path carries no hook."""
        self._links.append(weakref.ref(link))

    def _fail(self, invariant: str, flow_id: Optional[int], detail: str):
        raise InvariantViolation(invariant, self.sim.now(), flow_id, detail)

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def on_event(self, t: float, ev=None) -> None:
        """Called by the engine for every event about to fire, with the
        time of the heap entry it surfaced under and the entry."""
        self.checks_run += 1
        if ev is not None and ev[3] is not None:
            self._fail("event_clock", None,
                       f"{ev!r} fires from a heap entry at {t!r} carrying "
                       "a mark (moved, and the stale entry was not re-keyed)")
        if not math.isfinite(t) or t < 0.0:
            self._fail("event_clock", None, f"event time {t!r} is not a "
                       "finite non-negative instant")
        if t < self._last_event_time - _EPS:
            self._fail("event_clock", None,
                       f"event fires at {t!r} after one at "
                       f"{self._last_event_time!r} (queue order broken)")
        self._last_event_time = t
        if self.sim.events_fired % LEDGER_CHECK_PERIOD == 0:
            for ref in self._links:
                link = ref()
                if link is not None:
                    self.check_link(link)

    def check_link(self, link) -> None:
        """The transmitter's timing, the drop-tail queue and the packet
        ledger of one wired link."""
        self.checks_run += 1
        queue, cap = link.queue, link.queue.capacity_bytes
        starts = [entry[0] for entry in queue.waiting]
        counted = sum(entry[1] for entry in queue.waiting)
        queued = sum(entry[1] for entry in queue.waiting
                     if entry[0] > self.sim.clock._now)
        admitted = (link.packets_sent + link.packets_duplicated
                    - link.packets_lost + link.packets_corrupted)
        held = (len(link._in_flight) + len(link._overtaking)
                + link.packets_delivered + link.packets_corrupted)
        if (queue.waiting_bytes != counted
                or (cap is not None and queued > cap)
                or starts != sorted(starts) or max(starts, default=0.0)
                > link._busy_until or not queue.enqueued == admitted == held):
            self._fail("link_queue", None,
                       f"{link.name}: {queue.waiting_bytes} bytes counted, "
                       f"{counted} in entries starting {starts[:4]}..., "
                       f"{queued} not started (capacity {cap}), busy until "
                       f"{link._busy_until!r}; {queue.enqueued} enqueued, "
                       f"{admitted} admitted, {held} held")

    # ------------------------------------------------------------------
    # sender hooks
    # ------------------------------------------------------------------
    def on_data_sent(self, sender, rec) -> None:
        """Called for every DATA emission (new or retransmission)."""
        self.checks_run += 1
        state = self._senders.setdefault(sender, _FlowState())
        if rec.pkt_seq <= state.last_pkt_seq:
            self._fail("pkt_seq_monotone", sender.flow_id,
                       f"PKT.SEQ {rec.pkt_seq} not above previous "
                       f"{state.last_pkt_seq} (S5.1 requires strictly "
                       "increasing packet numbers)")
        state.last_pkt_seq = rec.pkt_seq
        if rec.seq < 0 or rec.length <= 0:
            self._fail("pkt_seq_monotone", sender.flow_id,
                       f"bad segment seq={rec.seq} length={rec.length}")
        if sender.guard is not None and sender.receiver_driven:
            departures = state.departures
            departures.append(rec.last_sent)
            horizon = rec.last_sent - sender.guard.cfg.echo_window_s
            while departures[0] < horizon:
                departures.popleft()

    def on_rtt_sample(self, sender, sample: float, now: float) -> None:
        """Called for every raw RTT sample the sender takes."""
        if sample <= 0 or not math.isfinite(sample):
            self._fail("rtt_min_window", sender.flow_id,
                       f"non-positive RTT sample {sample!r}")
        state = self._senders.setdefault(sender, _FlowState())
        state.push_rtt_sample(now, sample)

    def on_sender_feedback(self, sender, fb, progress: bool = False) -> None:
        """Called at the end of every processed acknowledgment;
        ``progress`` says it newly acknowledged bytes."""
        self.checks_run += 1
        flow = sender.flow_id
        state = self._senders.setdefault(sender, _FlowState())
        state.feedbacks_seen += 1
        now = self.sim.now()

        if fb.awnd < 0:
            self._fail("nonneg_rwnd", flow,
                       f"advertised window {fb.awnd} < 0")
        pacing = sender.cc.pacing_rate_bps()
        if pacing < 0 or not math.isfinite(pacing):
            self._fail("nonneg_pacing", flow,
                       f"pacing rate {pacing!r} bps")
        cwnd = sender.cc.cwnd_bytes()
        if cwnd <= 0:
            self._fail("nonneg_pacing", flow,
                       f"congestion window {cwnd} <= 0")
        if sender.cum_acked < state.last_cum_ack:
            self._fail("cum_ack_monotone", flow,
                       f"cum_ack moved backward: {sender.cum_acked} < "
                       f"{state.last_cum_ack}")
        state.last_cum_ack = sender.cum_acked
        if sender.in_flight < 0:
            self._fail("byte_conservation", flow,
                       f"in_flight {sender.in_flight} < 0")

        self._check_rtt_min_window(sender, state, now)
        self._check_rto_armed(sender, now, progress)
        if state.feedbacks_seen % LEDGER_CHECK_PERIOD == 0:
            self.check_sender_ledger(sender)

    def check_sender_ledger(self, sender) -> None:
        """Full O(window) audit of the sender's ledger: conservation,
        and the incremental scoreboard against the records it indexes."""
        # Imported here: the engine imports this module, the sender
        # imports the engine.
        from repro.transport.intervals import IntervalSet
        from repro.transport.sender import IN_FLIGHT, SACKED
        self.checks_run += 1
        flow = sender.flow_id
        covered = 0
        in_flight = 0
        sacked = IntervalSet()
        holes = []
        for seq in sorted(sender.records):
            rec = sender.records[seq]
            covered += max(0, rec.end - max(rec.seq, sender.cum_acked))
            if rec.state == IN_FLIGHT:
                in_flight += rec.length
            if rec.state == SACKED:
                sacked.add(rec.seq, rec.end)
            elif rec.seq < sender._frontier:
                holes.append(rec.seq)
        if sacked.ranges() != sender._sacked.ranges():
            self._fail("scoreboard_index", flow,
                       f"SACKED coverage {sender._sacked.ranges()} != "
                       f"{sacked.ranges()}, the union of the SACKED records")
        if holes != sender._holes:
            self._fail("scoreboard_index", flow,
                       f"hole list {sender._holes} != {holes}, the "
                       f"un-SACKed records below the SACK frontier "
                       f"{sender._frontier}")
        indexed = [set(heap) for heap in sender._rack_heaps]
        for seq in holes:
            rec = sender.records[seq]
            if rec.state != IN_FLIGHT:
                continue
            repair = rec.retx_count > 0
            governed = sender.governor._last_retx.get(seq)
            if ((rec.last_sent, rec.pkt_seq) not in indexed[repair]
                    or governed != (rec.last_sent if repair else None)):
                self._fail("rack_index", flow,
                           f"in-flight hole {seq} (last_sent "
                           f"{rec.last_sent!r}, pkt_seq {rec.pkt_seq}, "
                           f"repair {repair}, governor time {governed!r}) "
                           "has no entry in its RACK heap, or a governor "
                           "time other than its last repair's send time")
        outstanding = sender.next_seq - sender.cum_acked
        if covered != outstanding:
            self._fail("byte_conservation", flow,
                       f"send records cover {covered} bytes but "
                       f"next_seq - cum_acked = {outstanding} "
                       "(sent != delivered + lost + in-flight)")
        if in_flight != sender.in_flight:
            self._fail("byte_conservation", flow,
                       f"in_flight counter {sender.in_flight} != "
                       f"{in_flight} summed from live records")
        if sender.guard is not None and sender.receiver_driven:
            self._check_stamp_store(sender)

    def _check_stamp_store(self, sender) -> None:
        guard, flow = sender.guard, sender.flow_id
        stamps, head = guard._stamps, guard._stamp_head
        if not 0 <= head <= len(stamps) or any(
                b <= a for a, b in zip(stamps, stamps[1:])):
            self._fail("stamp_store", flow, f"departure stamps unsorted or "
                       f"repeated, or head {head} outside [0, {len(stamps)}]")
        truth = set(self._senders[sender].departures)
        horizon = (stamps[-1] if stamps else 0.0) - guard.cfg.echo_window_s
        held = {ts for ts in stamps[head:] if ts >= horizon}
        if held != truth:
            self._fail("stamp_store", flow, f"echoable stamps lost "
                       f"{sorted(truth - held)[:3]}, hold unsent or aged "
                       f"{sorted(held - truth)[:3]}")

    def _check_rto_armed(self, sender, now: float, progress: bool) -> None:
        from repro.transport.sender import LOST
        if sender.closed:
            return
        records = sender.records
        if sender.in_flight <= 0 and not any(
                seq in records and records[seq].state == LOST
                for seq in sender.retx_queue):
            return
        timer = sender._rto_timer
        armed_at = None if timer is None else self.sim.due(timer)
        if armed_at is None:
            self._fail("rto_armed", sender.flow_id,
                       f"in_flight={sender.in_flight}, "
                       f"{len(sender.retx_queue)} retransmissions queued, "
                       f"but the retransmission timeout is {timer!r}")
        if armed_at < now:
            self._fail("rto_armed", sender.flow_id,
                       f"{timer!r} was due before now: it fired or was "
                       "lost, and the sender still holds it")
        # The sender's own expression on its own operands, so the same
        # float to the last bit:
        due = now + sender.rtt.rto()
        if progress and armed_at != due:  # reprolint: disable=REP003
            self._fail("rto_armed", sender.flow_id,
                       f"progress at {now!r} with RTO {sender.rtt.rto()!r} "
                       f"left the timeout due at {armed_at!r}")

    def _check_rtt_min_window(self, sender, state: _FlowState,
                              now: float) -> None:
        window = getattr(sender.min_rtt_legacy._filter, "window", 10.0)
        samples = state.rtt_samples
        horizon = now - window
        while samples and samples[0][0] < horizon:
            samples.popleft()
        if not samples:
            return
        floor = samples[0][1]
        reported = sender.current_rtt_min()
        if reported > floor + _EPS:
            self._fail("rtt_min_window", sender.flow_id,
                       f"RTT_min {reported:.9f} exceeds smallest sample "
                       f"{floor:.9f} within the trailing "
                       f"{window:.3f}s window (min filter must be "
                       "non-increasing until samples expire)")

    # ------------------------------------------------------------------
    # receiver hooks
    # ------------------------------------------------------------------
    def on_receiver_data(self, receiver) -> None:
        """Called after every data packet the receiver ingests."""
        self.checks_run += 1
        flow = receiver.flow_id
        state = self._receivers.setdefault(receiver, _FlowState())
        if receiver.delivered_ptr < state.last_delivered_ptr:
            self._fail("cum_ack_monotone", flow,
                       f"delivered_ptr moved backward: "
                       f"{receiver.delivered_ptr} < {state.last_delivered_ptr}")
        state.last_delivered_ptr = receiver.delivered_ptr
        awnd = receiver.awnd()
        if awnd < 0:
            self._fail("nonneg_rwnd", flow, f"advertised window {awnd} < 0")
        first_missing = receiver.intervals.first_missing(receiver.delivered_ptr)
        if first_missing < receiver.delivered_ptr:
            self._fail("stream_conservation", flow,
                       f"reassembly cursor {first_missing} below "
                       f"consumption point {receiver.delivered_ptr}")
        buffered = sum(end - start for start, end in receiver.intervals.ranges())
        if receiver.intervals.covered() != buffered:
            self._fail("interval_count", flow,
                       f"covered() counter {receiver.intervals.covered()} "
                       f"!= {buffered} summed over the ranges")
        peer = self._peer_sender.get(receiver)
        sender = None if peer is None else peer()
        if sender is not None:
            held = receiver.delivered_ptr + buffered
            if held > sender.next_seq:
                self._fail("stream_conservation", flow,
                           f"receiver holds {held} stream bytes but the "
                           f"sender only injected {sender.next_seq}")

    def on_gap_cache(self, receiver, cum_ack: int) -> None:
        """Called when the receiver reuses its last unacked walk."""
        self.checks_run += 1
        intervals = receiver.intervals
        fresh = intervals.gaps(intervals.max_end(), start=cum_ack)
        kept = sorted(receiver._gap_first_seen)
        if receiver._gaps != fresh or kept != [start for start, _ in fresh]:
            self._fail("gap_cache", receiver.flow_id,
                       f"reused gaps {receiver._gaps} (first-seen times for "
                       f"{kept}) != {fresh}, a fresh walk from {cum_ack}")

    # -- flow-doctor hook ------------------------------------------------
    def doctor_fold(self, doctor, t, category, name, flow_id, fields) -> None:
        """The live doctor's bus subscription under the sanitizer: its
        fold, then the check of the flow it folded into (if open)."""
        doctor.fold(t, category, name, flow_id, fields)
        flow = doctor._flows.get(flow_id)
        if flow is None:
            return
        self.checks_run += 1
        desired = flow._classify()
        if flow.state != desired:
            self._fail("doctor_state", flow.flow_id,
                       f"timeline is in {flow.state!r} but the flags "
                       f"classify to {desired!r}")
