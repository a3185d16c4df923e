"""Transport sender: windows, pacing, retransmission, rate control.

One sender class covers both paradigms of the paper:

* **legacy mode** (``receiver_driven=False``): loss detection by
  duplicate ACKs plus RACK, RTT sampling from ACK arrival times
  (delay-biased, as the paper points out), sender-side delivery-rate
  estimation — the TCP BBR / CUBIC baselines.
* **TACK mode** (``receiver_driven=True``): retransmissions are
  *pulled* by IACKs and rich TACK block lists, RTT_min comes from the
  advanced OWD timing, and the delivery rate arrives pre-computed in
  each TACK (paper S5.1-S5.4).  The once-per-RTT retransmission
  governor suppresses duplicate pulls.

Both modes pace (paper S5.3); legacy TCP's micro-bursts are modeled by
pacing at ``1.2 * cwnd / srtt`` inside the congestion controllers.
"""

from __future__ import annotations

import collections
from bisect import bisect_left
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.cc.base import CongestionController, RateSample
from repro.cc.pacing import Pacer
from repro.cc.rack import RackState
from repro.core.loss_detect import RetransmitGovernor
from repro.core.owd_timing import SenderRttMinEstimator
from repro.core.rate_sync import AckPathLossEstimator
from repro.netsim.engine import Simulator
from repro.netsim.packet import (
    ACK_KINDS,
    HEADER_SIZE,
    MSS,
    Packet,
    PacketType,
)
from repro.transport.errors import AbortInfo, FeedbackFormatError
from repro.transport.feedback import AckFeedback, check_wire_form
from repro.transport.guard import FeedbackValidator, GuardConfig
from repro.transport.intervals import IntervalSet
from repro.transport.rtt import MinRttTracker, RttEstimator

#: ``SendRecord.state``.  A record is exactly one of these until the
#: cumulative ACK passes it and it leaves the scoreboard: its latest
#: transmission is presumed in the network; it was declared lost and
#: awaits retransmission (which puts it back in flight); or a SACK
#: block covered it (final: a late loss mark never revives it).
IN_FLIGHT, LOST, SACKED = range(3)

#: A SendRecord without ``__init__``: ``_try_send`` makes the stores.
_new_record = object.__new__


class SendRecord:
    """Bookkeeping for one outstanding segment."""

    __slots__ = (
        "seq",
        "length",
        "pkt_seq",
        "first_sent",
        "last_sent",
        "retx_count",
        "state",
        "delivered_snapshot",
        "delivered_time",
    )

    def __init__(self, seq: int, length: int, pkt_seq: int, now: float,
                 delivered_snapshot: int):
        self.seq = seq
        self.length = length
        self.pkt_seq = pkt_seq
        self.first_sent = now
        self.last_sent = now
        self.retx_count = 0
        self.state = IN_FLIGHT
        self.delivered_snapshot = delivered_snapshot
        self.delivered_time = now

    @property
    def end(self) -> int:
        return self.seq + self.length


class SenderStats:
    """Counters published by the sender."""

    def __init__(self):
        self.data_packets_sent = 0
        self.retransmissions = 0
        self.spurious_retransmissions = 0
        self.bytes_sent = 0
        self.feedback_received = 0
        self.iacks_received = 0
        self.tacks_received = 0
        self.acks_received = 0
        self.rtos = 0
        self.fast_retransmits = 0
        self.rtt_samples = 0
        self.handshake_retries = 0
        self.persist_probes = 0
        self.feedback_rejected = 0
        self.watchdog_probes = 0


class TransportSender:
    """Sending endpoint of a connection."""

    def __init__(
        self,
        sim: Simulator,
        cc: CongestionController,
        mss: int = MSS,
        receiver_driven: bool = False,
        flow_id: int = 0,
        initial_rto_s: float = 1.0,
        min_rtt_window_s: float = 10.0,
        max_syn_retries: int = 6,
        max_rto_retries: int = 10,
        max_persist_retries: int = 16,
        guard: Optional[GuardConfig] = None,
    ):
        self.sim = sim
        self.cc = cc
        self.mss = mss
        self.receiver_driven = receiver_driven
        self.flow_id = flow_id
        self._port = None
        # sequencing
        self.next_seq = 0
        self.next_pkt_seq = 1
        self.records: dict[int, SendRecord] = {}
        self._order: list[int] = []          # seq starts, ascending
        self._head = 0                       # first un-cum-acked index
        # SACK scoreboard, maintained incrementally so a feedback costs
        # what it newly says (DESIGN.md, transport): the byte ranges of
        # the live SACKED records; the highest SACK block end swept so
        # far; and the records below it that are not SACKED, ascending.
        self._sacked = IntervalSet()
        self._frontier = 0
        self._holes: list[int] = []
        # RACK index of the in-flight holes, (last_sent, pkt_seq): one
        # heap for first transmissions, one for repairs.  An entry is
        # stale once pkt_map maps no IN_FLIGHT record to it.
        self._rack_heaps: tuple[list, list] = ([], [])
        self.pkt_map: dict[int, int] = {}    # pkt_seq -> seq (latest)
        self.retx_queue: collections.deque[int] = collections.deque()
        self._retx_queued: set[int] = set()
        # flow state
        self.cum_acked = 0
        self.in_flight = 0
        self.delivered = 0
        self.awnd = 1 << 30
        self.established = False
        self.closed = False
        # app data
        self.pending_bytes = 0
        self.unlimited = False
        self.total_bytes: Optional[int] = None
        self.completed_at: Optional[float] = None
        # estimators
        self.rtt = RttEstimator(initial_rto_s=initial_rto_s)
        self.min_rtt_legacy = MinRttTracker(tau_s=min_rtt_window_s)
        self.rtt_min_est = SenderRttMinEstimator(window_s=min_rtt_window_s)
        # The mode's own RTT_min read, ``(default) -> seconds``.
        self._rtt_min_of = (self.rtt_min_est.rtt_min if receiver_driven
                            else self.min_rtt_legacy.get)
        self.rack = RackState()
        self.governor = RetransmitGovernor()
        self.ack_loss = AckPathLossEstimator()
        rate = cc.pacing_rate_bps()
        self.pacer = Pacer(rate_bps=rate if rate > 0 else 1e6)
        # legacy dupACK state
        self._dup_count = 0
        self._recovery_point = -1
        # timers
        self._send_timer = None
        self._rto_timer = None
        self._persist_timer = None
        self._syn_sent_at: Optional[float] = None
        # failure handling: every retry loop is capped, and exhausting
        # a cap ends in a structured abort instead of an infinite stall
        # (see repro.transport.errors for the reason vocabulary).
        self.max_syn_retries = max_syn_retries
        self.max_rto_retries = max_rto_retries
        self.max_persist_retries = max_persist_retries
        self.aborted: Optional[AbortInfo] = None
        self._on_abort: Optional[Callable[[AbortInfo], None]] = None
        self._syn_attempts = 0
        self._consecutive_rtos = 0
        self._persist_attempts = 0
        self.stats = SenderStats()
        # feedback guard: the peer-trust boundary (repro.transport.
        # guard).  Enabled by default; every frame is validated against
        # ground truth before anything below consumes it, and the
        # ACK-withholding watchdog is the T-RACKs-style last resort.
        self._guard_cfg = guard if guard is not None else GuardConfig()
        self.guard: Optional[FeedbackValidator] = (
            FeedbackValidator(self, self._guard_cfg)
            if self._guard_cfg.enabled else None)
        self._wd_timer = None
        self._wd_probes = 0
        self._wd_last_probe_s = 0.0
        self._last_fb_s: Optional[float] = None
        self._accepts_since_probe = 0
        # simsan: one None-check per hook site when disabled.
        self._san = sim.san
        if self._san is not None:
            self._san.register_sender(self)
        # probes: flow-doctor-vocabulary events go through the bus,
        # once, to every subscriber; the trace-only sites (send/retx,
        # cc/update, rttmin_sync) keep the collector itself, so a
        # doctor-only run leaves them at stride 0 / None.  The
        # change-tracking state below is maintained unconditionally (a
        # handful of comparisons), so *when* an event fires never
        # depends on who is listening.
        self._bus = sim.probes
        self._tel = sim.telemetry
        self._tel_last_rtt_min: Optional[float] = None
        # site-local sampling stride for the per-packet send site (see
        # TraceCollector.sampling_stride): dropped events cost integer
        # arithmetic here instead of a collector call.
        self._tel_stride = (self._tel.sampling_stride("transport")
                            if self._tel is not None else 0)
        self._tel_n = 0
        if self._bus is not None:
            cc.attach_probes(self._bus, flow_id)
        self._limit: Optional[str] = None       # last emitted send-limit
        self._recovery_mode = "none"            # none | rto | pull
        self._recovery_high = 0                 # recovery point (next_seq)
        self._open_emitted = False
        # energy ledger: same null-guard pattern; the open/close pair
        # bounds this flow's idle-energy window.
        self._en = getattr(sim, "energy", None)
        if self._en is not None:
            self._en.flow_opened(flow_id)
        # profiling: construction-time re-binding keeps the hot paths
        # free of profiling branches when no profiler is attached.
        prof = getattr(sim, "profiler", None)
        if prof is not None:
            self._on_feedback = prof.wrap("sender.feedback", self._on_feedback)
            self._try_send = prof.wrap("sender.try_send", self._try_send)
            cc.attach_profiler(prof)

    def _obs(self, name: str, category: str = "transport", **fields) -> None:
        """One diagnosis-vocabulary event (the validator's ``guard``
        events come through here too, already rate-limited)."""
        if self._bus is not None:
            self._bus.emit(category, name, self.flow_id, fields)

    def _note_recovery(self, mode: str) -> None:
        """Track the loss-recovery mode; emits only on change."""
        if mode != self._recovery_mode:
            self._recovery_mode = mode
            self._obs("recovery", mode=mode)

    # ------------------------------------------------------------------
    # wiring and app interface
    # ------------------------------------------------------------------
    def connect(self, port) -> None:
        """Attach the forward-path port data is sent through."""
        self._port = port

    def start(self) -> None:
        """Initiate the handshake."""
        if not self._open_emitted:
            self._open_emitted = True
            self._obs("open", total_bytes=self.total_bytes)
        syn = Packet(PacketType.SYN, size=64, flow_id=self.flow_id)
        syn.sent_at = self.sim.now()
        self._syn_sent_at = self.sim.now()
        if self._port is not None:
            self._port.send(syn)
        # Retry the handshake if the SYN or SYN-ACK is lost.
        self._rto_timer = self.sim.call_in(self.rtt.rto(), self._handshake_timeout)

    def _handshake_timeout(self) -> None:
        """Capped exponential SYN retry — same backoff discipline as
        the data-path RTO, ending in a structured abort instead of
        retrying forever at a fixed interval."""
        if self.established or self.closed:
            return
        self._syn_attempts += 1
        if self._syn_attempts > self.max_syn_retries:
            self._abort("handshake_timeout", attempts=self._syn_attempts,
                        detail=f"no SYN-ACK after {self.max_syn_retries} retries")
            return
        self.stats.handshake_retries += 1
        self.rtt.back_off()
        self.start()

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def on_abort(self, callback: Callable[[AbortInfo], None]) -> None:
        """Register a callback fired once if the sender gives up."""
        self._on_abort = callback

    def _abort(self, reason: str, attempts: int = 0, detail: str = "") -> None:
        """Give up: record why, tear down timers, notify observers.

        Runs inside the event loop, so it must not raise — hosts pick
        the record up via :attr:`aborted` (or
        ``Connection.raise_if_aborted``) after the run.
        """
        if self.closed or self.aborted is not None:
            return
        self.aborted = AbortInfo(
            reason=reason, at_s=self.sim.now(), flow_id=self.flow_id,
            attempts=attempts, detail=detail,
        )
        self._obs("abort", reason=reason, attempts=attempts,
                  cum_acked=self.cum_acked, in_flight=self.in_flight)
        self.close()
        if self._on_abort is not None:
            self._on_abort(self.aborted)

    def _guard_abort(self) -> None:
        """Escalation endpoint of the feedback guard: a structured
        ``misbehaving_peer`` abort instead of a stall or a crash."""
        if self.closed or self.aborted is not None:
            return
        g = self.guard
        rule = (g.escalation_rule or "withheld") if g is not None else "withheld"
        total = g.total if g is not None else 0
        self._abort("misbehaving_peer", attempts=total,
                    detail=f"feedback guard escalated on rule {rule!r}")

    # ------------------------------------------------------------------
    # ACK-withholding watchdog (T-RACKs-style last resort)
    # ------------------------------------------------------------------
    def _wd_threshold(self) -> float:
        cfg = self._guard_cfg
        # Capped: the RTO backs off during exactly the silence being
        # measured, so an uncapped multiple outruns the silence forever.
        return min(max(cfg.watchdog_rto_mult * self.rtt.rto(),
                       cfg.watchdog_floor_s),
                   cfg.watchdog_cap_s)

    def _wd_arm(self) -> None:
        if (self.guard is None or not self._guard_cfg.watchdog
                or self.closed or self._wd_timer is not None):
            return
        self._wd_timer = self.sim.call_in(self._wd_threshold() / 2,
                                          self._on_watchdog)

    def _on_watchdog(self) -> None:
        """Fires periodically once established.  A probe needs three
        things: feedback silence past the threshold, probe spacing of
        at least one threshold, and *accepted* sends since the last
        probe/feedback — a dead path (sends refused at link ingress)
        never probes and still ends in the honest ``rto_exhausted``.
        """
        self._wd_timer = None
        if self.closed:
            return
        now = self.sim.now()
        threshold = self._wd_threshold()
        last_fb = self._last_fb_s if self._last_fb_s is not None else 0.0
        if (self.in_flight > 0
                and now - last_fb >= threshold
                and now - self._wd_last_probe_s >= threshold
                and self._accepts_since_probe >= self._guard_cfg.watchdog_min_sends):
            self._wd_probes += 1
            self.stats.watchdog_probes += 1
            self._wd_last_probe_s = now
            self._accepts_since_probe = 0
            self.guard.note_withheld()
            self._obs("watchdog_probe", "guard", probes=self._wd_probes,
                      silence_s=now - last_fb)
            if self._wd_probes > self._guard_cfg.watchdog_probes:
                self._guard_abort()
                return
            # Last-resort recovery probe: retransmit the first unacked
            # segment (not governed: the governor would mute it).
            rec = self._first_unacked_record()
            if rec is not None:
                self._mark_record_lost(rec, now)
                if self._has_retx():
                    self._transmit_retx(self.retx_queue.popleft(), now)
        self._wd_timer = self.sim.call_in(max(threshold / 2, 0.05),
                                          self._on_watchdog)

    def write(self, nbytes: int) -> None:
        """Queue application data for transmission."""
        if nbytes < 0:
            raise ValueError(f"negative write: {nbytes}")
        self.pending_bytes += nbytes
        if self.total_bytes is not None:
            self.total_bytes += nbytes
        self._try_send()

    def set_unlimited(self) -> None:
        """Model an infinite bulk source."""
        self.unlimited = True
        self._try_send()

    def set_total(self, nbytes: int) -> None:
        """Fixed-size transfer; completion is stamped when the last
        byte is cumulatively acknowledged."""
        self.total_bytes = nbytes
        self.pending_bytes = nbytes
        self._try_send()

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        kind = packet.kind
        if kind is PacketType.SYN_ACK:
            self._handle_syn_ack(packet)
        elif kind in ACK_KINDS:
            fb = packet.meta.get("fb")
            if fb is not None:
                # Any arriving feedback — even a frame the guard ends
                # up rejecting — is liveness for the ACK-withholding
                # watchdog: withholding means *silence*, mangling is
                # the escalation counters' job.
                self._last_fb_s = now = self.sim.clock._now
                self._wd_probes = 0
                self._accepts_since_probe = 0
                guard = self.guard
                if guard is not None:
                    fb = guard.admit(fb, now)
                    if guard.escalated:
                        self._guard_abort()
                        return
                    if fb is None:
                        self.stats.feedback_rejected += 1
                        return
                else:
                    # Decode hardening holds even with the guard off:
                    # a malformed frame is dropped, never a TypeError
                    # escaping into the event loop.
                    try:
                        check_wire_form(fb)
                    except FeedbackFormatError:
                        self.stats.feedback_rejected += 1
                        return
                self._on_feedback(fb, kind)

    def _handle_syn_ack(self, packet: Packet) -> None:
        if self.established:
            return
        self.established = True
        now = self.sim.now()
        sent_at = packet.meta.get("syn_sent_at", self._syn_sent_at)
        rtt0: Optional[float] = None
        if sent_at is not None:
            rtt0 = now - sent_at
            self.rtt.on_sample(rtt0)
            self.min_rtt_legacy.on_sample(rtt0, now)
            self.rtt_min_est.on_handshake(rtt0, now)
        self._obs("established", rtt_s=rtt0)
        if self._rto_timer is not None:
            self.sim.cancel(self._rto_timer)
            self._rto_timer = None
        self.pacer.release_at = now
        self.pacer.set_rate(self.cc.pacing_rate_bps())
        self._last_fb_s = now
        self._wd_arm()
        self._try_send()

    # ------------------------------------------------------------------
    # feedback processing
    # ------------------------------------------------------------------
    def _on_feedback(self, fb: AckFeedback, kind: PacketType) -> None:
        # Read once per feedback (DESIGN.md, transport): the clock, the
        # controller and the paradigm; the RTO where the timeout is
        # re-armed.
        now = self.sim.clock._now
        cc = self.cc
        receiver_driven = self.receiver_driven
        stats = self.stats
        stats.feedback_received += 1
        if kind is PacketType.IACK:
            stats.iacks_received += 1
        elif kind is PacketType.TACK:
            stats.tacks_received += 1
        else:
            stats.acks_received += 1
        # rho': every feedback flavor carries a shared sequence number;
        # holes in it are exactly the feedback the ACK path dropped.
        self.ack_loss.on_feedback(fb.fb_seq)
        self.awnd = fb.awnd
        sack_blocks = fb.sack_blocks
        newly_acked = 0
        newly_lost = 0
        rtt_sample: Optional[float] = None
        rate_sample_bps: Optional[float] = None

        # --- cumulative acknowledgment ------------------------------
        # Ignore acknowledgment of data never sent (RFC 9293: an ACK
        # above SND.NXT is discarded) — clamp rather than trust.
        cum_ack = fb.cum_ack
        if cum_ack > self.next_seq:
            cum_ack = self.next_seq
        order, head = self._order, self._head
        advanced = cum_ack > self.cum_acked
        if advanced:
            self.cum_acked = cum_ack
            self._dup_count = 0
            records, pkt_map = self.records, self.pkt_map
            run = []
            while head < len(order):
                seq = order[head]
                rec = records.get(seq)
                if rec is None or rec.seq + rec.length > cum_ack:
                    break
                head += 1
                if rec.state != SACKED:
                    run.append(rec)
                del records[seq]
                pkt_map.pop(rec.pkt_seq, None)
                if rec.retx_count:      # only a repair has a governor entry
                    self.governor.on_acked(seq)
            self._head = head
            if run:
                acked, rates = self._settle_run(run, now, sacked=False)
                newly_acked += acked
                if rates:   # legacy: the last first transmission's sample
                    rate_sample_bps = rates[-1]
                    # RTT samples from ACK arrival times (delay-biased,
                    # paper S4.3); TACK mode times through TACK references.
                    for rec in run:
                        if rec.retx_count == 0:
                            rtt_sample = now - rec.last_sent
                            self.rtt.on_sample(rtt_sample)
                            self.min_rtt_legacy.on_sample(rtt_sample, now)
                            self._obs_rtt(rtt_sample, now)
        elif (fb.cum_ack == self.cum_acked and not receiver_driven
              and (sack_blocks or self.in_flight > 0)):
            self._dup_count += 1
        # Start of the lowest record still on the scoreboard.
        first_live = order[head] if head < len(order) else self.next_seq
        if advanced:
            if self._sacked or self._holes:
                # The scoreboard indexes live records only.
                self._sacked.remove_below(first_live)
                del self._holes[:bisect_left(self._holes, first_live)]
                if not self._holes:     # every RACK entry is stale
                    for heap in self._rack_heaps:
                        heap.clear()
            if head > 8192:
                # Compact the send-order index so memory tracks the
                # window, not the lifetime of the connection.
                self._order = order[head:]
                self._head = 0

        # --- selective acknowledgment (acked list) ------------------
        sack_top = 0
        if sack_blocks:
            gaps = self._sacked.gaps
            for start, end in sack_blocks:
                if end > sack_top:
                    sack_top = end
                # A block that repeats what earlier feedback settled
                # has no gap left: it costs this one bisect.
                for gap_start, gap_end in gaps(
                        end, start if start > first_live else first_live):
                    acked, rates = self._sack_gap(gap_start, gap_end, end, now)
                    newly_acked += acked
                    for rate in rates:
                        if rate is not None:
                            best = rate_sample_bps or 0.0
                            rate_sample_bps = rate if rate > best else best

        # --- TACK timing --------------------------------------------
        if receiver_driven:
            sample = self.rtt_min_est.on_tack(now, fb.echo_departure_ts, fb.tack_delay)
            if sample is not None:
                self.rtt.on_sample(sample)
                rtt_sample = sample
                self._obs_rtt(sample, now)
            for departure_ts, delay in fb.packet_delays:
                # Per-packet delay entries (S4.3 alternative): one RTT
                # sample each.
                extra = self.rtt_min_est.on_tack(now, departure_ts, delay)
                if extra is not None:
                    self._obs_rtt(extra, now)

        # --- loss notifications -------------------------------------
        if fb.pull_pkt_range is not None:
            newly_lost += self._handle_pull(fb.pull_pkt_range, now)
        if fb.unacked_blocks:
            window = self._governor_window()
            for start, end in fb.unacked_blocks:
                newly_lost += self._mark_range_lost(start, end, now, window)
        if not receiver_driven:
            # Fast retransmit on 3 dupACKs plus a RACK time sweep.  The
            # sweep runs on every SACK-bearing feedback (not only on new
            # SACK progress): after a burst loss the receiver's repeated
            # SACKs are identical, yet older holes still cross the RACK
            # deadline as time passes and must be detected.
            if sack_top > self._frontier:   # else nothing new to classify
                if self._sacked.contains_range(self._frontier, sack_top):
                    self._frontier = sack_top   # no gap to walk, no hole
                else:
                    self._advance_frontier(sack_top)
            if self._dup_count >= 3 and self.cum_acked > self._recovery_point:
                rec = self._first_unacked_record()
                if rec is not None:
                    if self.governor.may_retransmit(rec.seq, now,
                                                    self._governor_window()):
                        newly_lost += self._mark_record_lost(rec, now)
                    self._recovery_point = self.next_seq
                    stats.fast_retransmits += 1
                    self._dup_count = 0
            first, repairs = self._rack_heaps
            if sack_blocks and (first or repairs):
                # Entered only while the oldest entry of a heap is due.
                srtt = self.rtt.smoothed()
                is_lost = self.rack.is_lost
                if ((first and is_lost(first[0][0], srtt, now))
                        or (repairs and is_lost(repairs[0][0], srtt, now))):
                    newly_lost += self._rack_sweep(sack_top, now, srtt)

        # --- recovery-mode tracking (NewReno recovery-point rule) ---
        # Exit before enter: fresh losses in the same feedback re-open
        # recovery with a new recovery point.  Only feedback-signalled
        # losses enter "pull" — persist probes and timeouts have their
        # own states.
        if (self._recovery_mode != "none"
                and self.cum_acked >= self._recovery_high
                and not self._has_retx()):
            self._note_recovery("none")
        if newly_lost > 0 and self._recovery_mode == "none":
            self._recovery_high = self.next_seq
            self._note_recovery("pull")

        # --- rate sample to the controller --------------------------
        if receiver_driven and fb.delivery_rate_bps is not None:
            rate_sample_bps = fb.delivery_rate_bps
        # A sample is "application limited" when something other than
        # cwnd throttled the flow: the app ran dry, or the receiver's
        # advertised window is the binding constraint.  Such samples
        # must not lower the bandwidth estimate (BBR rule).
        app_limited = (
            (not self.unlimited and self.pending_bytes == 0)
            or self.awnd < cc.cwnd_bytes()
        )
        cc.on_feedback(RateSample(
            now, newly_acked, newly_lost, rtt_sample, rate_sample_bps,
            self.in_flight, app_limited,
            self.current_rtt_min() if receiver_driven else None))
        self.pacer.set_rate(cc.pacing_rate_bps())
        if self._bus is not None:
            # fb_seq and the sender's rho' estimate ride the feedback
            # event so the offline anomaly detector can compare the
            # estimate against fb_seq ground truth from sender-side
            # events alone.
            self._bus.emit("transport", "feedback", self.flow_id, {
                "kind": kind._value_, "cum_ack": self.cum_acked,
                "acked_bytes": newly_acked, "lost_bytes": newly_lost,
                "in_flight": self.in_flight, "awnd": fb.awnd,
                "fb_seq": fb.fb_seq, "rho_est": self.ack_loss.loss_rate})
        if self._tel is not None:
            self._tel.emit("cc", "update", self.flow_id,
                           cwnd_bytes=cc.cwnd_bytes(),
                           pacing_bps=cc.pacing_rate_bps())

        # --- completion / timers -------------------------------------
        if (
            self.total_bytes is not None
            and self.completed_at is None
            and self.cum_acked >= self.total_bytes
        ):
            self.completed_at = now
            self._obs("complete", total_bytes=self.total_bytes)
        progress = newly_acked > 0
        if progress:
            # Forward progress resets the give-up counters: abort only
            # on *consecutive* unanswered timeouts/probes.
            self._consecutive_rtos = 0
        if fb.awnd > 0:
            self._persist_attempts = 0
        self._rearm_rto(progress)
        self._try_send()
        if self._san is not None:
            self._san.on_sender_feedback(self, fb, progress)

    def _sack_gap(self, gap_start: int, gap_end: int, block_end: int,
                  now: float) -> tuple[int, list]:
        """Settle the records starting in ``[gap_start, gap_end)``, a
        stretch of a SACK block no SACKED record covers yet, so every
        record found is new information (see :meth:`_settle_run`).
        """
        order, records, holes = self._order, self.records, self._holes
        first = i = bisect_left(order, gap_start, self._head)
        run = []
        while i < len(order):
            seq = order[i]
            if seq >= gap_end:
                break
            rec = records[seq]
            if seq + rec.length > block_end:
                break       # straddles the block edge: not acknowledged
            if seq < self._frontier:
                del holes[bisect_left(holes, seq)]
            run.append(rec)
            i += 1
        if not run:
            return 0, []
        # Records tile the sequence space: what was settled is one run.
        last = run[-1]
        self._sacked.add(order[first], last.seq + last.length)
        return self._settle_run(run, now, sacked=True)

    def _settle_run(self, run: list[SendRecord], now: float,
                    sacked: bool) -> tuple[int, list]:
        """Mark a run of records delivered in one pass: counters, state,
        one RACK update.  Returns the newly-acked bytes and, in legacy
        mode, each first transmission's BBR-style delivery-rate sample
        in order (``None`` where no time has passed)."""
        in_flight, delivered = self.in_flight, self.delivered
        latest = run[0].last_sent
        rates: list[Optional[float]] = []
        legacy = not self.receiver_driven
        for rec in run:
            length = rec.length
            if rec.state == IN_FLIGHT:
                in_flight -= length
            if sacked:
                rec.state = SACKED
            delivered += length
            if rec.last_sent > latest:
                latest = rec.last_sent
            if legacy and rec.retx_count == 0:
                elapsed = now - rec.delivered_time
                rates.append((delivered - rec.delivered_snapshot) * 8.0 / elapsed
                             if elapsed > 0 else None)
        acked = delivered - self.delivered
        self.in_flight, self.delivered = in_flight, delivered
        rack = self.rack        # its high-water mark only rises
        if (rack.latest_delivered_send_time is None
                or latest > rack.latest_delivered_send_time):
            rack.latest_delivered_send_time = latest
        return acked, rates

    def _obs_rtt(self, sample: float, now: float) -> None:
        """Count one RTT sample and show it to the planes: sanitizer
        check plus one ``timing``/``rtt_sample`` event."""
        self.stats.rtt_samples += 1
        if self._san is not None:
            self._san.on_rtt_sample(self, sample, now)
        if self._bus is not None:
            srtt = self.rtt.smoothed()
            self._bus.emit("timing", "rtt_sample", self.flow_id, {
                "rtt_s": sample, "srtt_s": srtt,
                "rtt_min_s": self._rtt_min_of(srtt)})

    # ------------------------------------------------------------------
    # loss detection
    # ------------------------------------------------------------------
    def _records_in_range(self, start: int, end: int):
        i = bisect_left(self._order, start, self._head)
        if i > self._head:
            j = i - 1
            seq = self._order[j]
            rec = self.records.get(seq)
            if rec is not None and rec.end > start:
                yield rec
        while i < len(self._order):
            seq = self._order[i]
            if seq >= end:
                break
            rec = self.records.get(seq)
            if rec is not None:
                yield rec
            i += 1

    def _handle_pull(self, pull_range: tuple[int, int], now: float) -> int:
        """IACK pull: retransmit pkt_seqs strictly inside the range."""
        lo, hi = pull_range
        lost = 0
        for pkt_seq in range(lo + 1, hi):
            seq = self.pkt_map.get(pkt_seq)
            if seq is None:
                continue
            rec = self.records.get(seq)
            if rec is None or rec.state == SACKED:
                continue
            if rec.pkt_seq != pkt_seq:
                continue  # already retransmitted under a newer number
            # The pulled number IS the latest transmission: certain
            # loss evidence (PKT.SEQ removes retransmission ambiguity,
            # paper S5.1), so the once-per-RTT governor must not block.
            lost += self._mark_record_lost(rec, now)
        return lost

    def _governor_window(self) -> float:
        """The once-per-RTT suppression window, read once per feedback
        by each governed caller: one RTT plus the feedback lag (a repair
        shows in feedback after RTT + up to one TACK interval)."""
        return 1.5 * self.rtt.smoothed()

    def _mark_range_lost(self, start: int, end: int, now: float,
                         window: float) -> int:
        """TACK unacked-list blocks: byte ranges missing at the receiver."""
        lost = 0
        may_retransmit = self.governor.may_retransmit
        for rec in self._records_in_range(start, end):
            if rec.state == SACKED or not may_retransmit(rec.seq, now, window):
                continue
            lost += self._mark_record_lost(rec, now)
        return lost

    def _mark_record_lost(self, rec: SendRecord, now: float) -> int:
        """Queue an ``IN_FLIGHT`` record for retransmission.  Callers
        on repeatable evidence ask the governor first; a pull, a
        timeout or a probe is certain and does not."""
        if rec.state != IN_FLIGHT:
            return 0
        self.in_flight -= rec.length
        rec.state = LOST
        if rec.seq not in self._retx_queued:
            self.retx_queue.append(rec.seq)
            self._retx_queued.add(rec.seq)
        return rec.length

    def _advance_frontier(self, sack_top: int) -> None:
        """A higher SACK block end puts more records below the
        frontier: those starting where nothing is SACKED are holes."""
        # Clamped: a record sent later must still be classified.
        sack_top = min(sack_top, self.next_seq)
        if sack_top <= self._frontier:
            return
        order, holes = self._order, self._holes
        records, heaps = self.records, self._rack_heaps
        for gap_start, gap_end in self._sacked.gaps(sack_top,
                                                    start=self._frontier):
            i = bisect_left(order, gap_start, self._head)
            while i < len(order) and order[i] < gap_end:
                holes.append(order[i])
                rec = records[order[i]]
                if rec.state == IN_FLIGHT:
                    heappush(heaps[rec.retx_count > 0],
                             (rec.last_sent, rec.pkt_seq))
                i += 1
        self._frontier = sack_top

    def _rack_sweep(self, sack_top: int, now: float, srtt: float) -> int:
        """Mark, in ascending ``seq``, the in-flight holes below
        ``sack_top`` that RACK declares lost and the governor allows
        (DESIGN.md S4): pop each heap while its oldest entry is due.
        A repair's governor time is its send time, so the repairs'
        heap stops at the first one refused: every later one is too.
        A due hole at or above ``sack_top`` goes back."""
        window = self._governor_window()
        is_lost, may_retransmit = self.rack.is_lost, self.governor.may_retransmit
        pkt_map, records = self.pkt_map, self.records
        due, kept = [], []
        for heap in self._rack_heaps:
            while heap and is_lost(heap[0][0], srtt, now):
                entry = heappop(heap)
                seq = pkt_map.get(entry[1])
                if seq is None or records[seq].state != IN_FLIGHT:
                    continue            # SACKed, acked or marked since
                if seq >= sack_top:
                    kept.append((heap, entry))
                elif may_retransmit(seq, now, window):
                    due.append(seq)
                else:
                    heappush(heap, entry)
                    break
        for heap, entry in kept:
            heappush(heap, entry)
        lost = 0
        for seq in sorted(due):
            lost += self._mark_record_lost(records[seq], now)
        return lost

    def _unsacked_records(self):
        """Every record that is not SACKED, ascending: the holes, then
        everything at or above the SACK frontier."""
        order, records = self._order, self.records
        for seq in self._holes:
            yield records[seq]
        for i in range(bisect_left(order, self._frontier, self._head),
                       len(order)):
            yield records[order[i]]

    def _first_unacked_record(self) -> Optional[SendRecord]:
        for rec in self._unsacked_records():
            if rec.state == IN_FLIGHT:
                return rec
        return None

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def current_rtt_min(self) -> float:
        return self._rtt_min_of(self.rtt.smoothed())

    def _has_retx(self) -> bool:
        while self.retx_queue:
            rec = self.records.get(self.retx_queue[0])
            if rec is None or rec.state != LOST:
                seq = self.retx_queue.popleft()
                self._retx_queued.discard(seq)
                continue
            return True
        return False

    def _try_send(self) -> None:
        if not self.established or self.closed or self._port is None:
            return
        now = self.sim.clock._now
        # Read once per call: nothing below processes feedback or a
        # timeout, and cwnd_bytes() is a pure state read (cc.base).
        cwnd = self.cc.cwnd_bytes()
        awnd = self.awnd
        window = cwnd if cwnd < awnd else awnd
        pacer = self.pacer
        retx_queue = self.retx_queue
        limit: Optional[str] = None
        while True:
            has_retx = bool(retx_queue) and self._has_retx()
            if has_retx:
                size = self.records[retx_queue[0]].length
            else:
                size = self.mss
                if not self.unlimited and self.pending_bytes < size:
                    size = self.pending_bytes
                    if size <= 0:
                        limit = "app"
                        break
            # Pull/RACK repairs bypass cwnd (the hole itself is throttling
            # the window), but RTO recovery does not: a timeout marks
            # *everything* outstanding lost, so until the first post-RTO
            # byte is acked, retransmissions are clocked by the collapsed
            # window (as Linux's tcp_xmit_retransmit_queue does) — a
            # spurious timeout then costs one retransmission, not a
            # go-back-N storm of duplicates.
            if (self.in_flight + size > window
                    and (not has_retx or self._consecutive_rtos > 0)):
                limit = "rwnd" if awnd < cwnd else "cwnd"
                self._maybe_arm_persist()
                break
            release_at = pacer.release_at
            if now < release_at:
                limit = "pacing"
                timer = self._send_timer
                # An armed timer already due at the release time (its
                # entry's key: it is never moved) is kept, not cancelled
                # and re-pushed.  Equality of one stored float with its
                # own copy, not clock arithmetic:
                if timer is None or timer[0] != release_at:  # reprolint: disable=REP003
                    if timer is not None:
                        self.sim.cancel(timer)
                    self._send_timer = self.sim.call_at(
                        release_at, self._on_send_timer)
                break
            if has_retx:
                self._transmit_retx(retx_queue.popleft(), now)
                continue
            # _transmit_new (test_new_segment_fold_matches_transmit_new)
            seq = self.next_seq
            pkt_seq = self.next_pkt_seq
            self.next_seq = seq + size
            self.next_pkt_seq = pkt_seq + 1
            if not self.unlimited:
                self.pending_bytes -= size
            rec = _new_record(SendRecord)
            rec.seq, rec.length, rec.pkt_seq = seq, size, pkt_seq
            rec.first_sent = rec.last_sent = rec.delivered_time = now
            rec.retx_count, rec.state = 0, IN_FLIGHT
            rec.delivered_snapshot = self.delivered
            self.records[seq] = rec
            self._order.append(seq)
            self.pkt_map[pkt_seq] = seq
            self.in_flight += size
            self._emit(rec, now)
        # Send-limit classification for the flow doctor: every break
        # above names what throttled the flow; only changes are worth
        # an event.
        if limit != self._limit:
            self._limit = limit
            self._obs("limited", limit=limit)
        if self._rto_timer is None or self.in_flight <= 0:
            self._rearm_rto()

    def _transmit_new(self, length_bytes: int, now: float) -> None:
        seq = self.next_seq
        pkt_seq = self.next_pkt_seq
        self.next_seq += length_bytes
        self.next_pkt_seq += 1
        if not self.unlimited:
            self.pending_bytes -= length_bytes
        rec = SendRecord(seq, length_bytes, pkt_seq, now, self.delivered)
        self.records[seq] = rec
        self._order.append(seq)
        self.pkt_map[pkt_seq] = seq
        self.in_flight += length_bytes
        self._emit(rec, now)

    def _transmit_retx(self, seq: int, now: float) -> None:
        self._retx_queued.discard(seq)
        rec = self.records.get(seq)
        if rec is None or rec.state != LOST:
            return
        old_pkt_seq = rec.pkt_seq
        rec.pkt_seq = self.next_pkt_seq
        self.next_pkt_seq += 1
        # Replace, never accumulate: the tuple (SEQ, PKT.SEQ) always
        # holds the latest transmission (paper S5.1).
        self.pkt_map.pop(old_pkt_seq, None)
        self.pkt_map[rec.pkt_seq] = seq
        rec.state = IN_FLIGHT
        rec.last_sent = now
        rec.retx_count += 1
        rec.delivered_snapshot = self.delivered
        rec.delivered_time = now
        self.in_flight += rec.length
        if seq < self._frontier:        # in flight again as a hole
            heappush(self._rack_heaps[1], (now, rec.pkt_seq))
        self.governor.on_retransmit(seq, now)
        self.stats.retransmissions += 1
        self._emit(rec, now)

    def _emit(self, rec: SendRecord, now: float) -> None:
        length = rec.length
        pkt = Packet(
            PacketType.DATA,
            size=length + HEADER_SIZE,
            seq=rec.seq,
            pkt_seq=rec.pkt_seq,
            payload_len=length,
            flow_id=self.flow_id,
        )
        pkt.sent_at = now
        if self._san is not None:
            self._san.on_data_sent(self, rec)
        if self.receiver_driven:
            guard = self.guard
            if guard is not None:
                # Departure-stamp ground truth for the echo_ts rule:
                # only timestamps recorded here may come back in a TACK.
                # on_data_sent's append; a first packet, short segment,
                # repeated time or prune goes there
                # (test_stamp_fold_matches_on_data_sent).
                stamps = guard._stamps
                if (stamps and stamps[-1] < now
                        and length >= guard._min_seg_bytes
                        and len(stamps) + 1 < guard._stamp_prune_len):
                    stamps.append(now)
                else:
                    guard.on_data_sent(now, length)
            # current_rtt_min() read in place (samples are > 0; srtt
            # before the first one).
            rtt_min = self.rtt_min_est.filter.value or self.rtt.smoothed()
            meta = pkt.meta
            meta["rtt_min"] = rtt_min
            # rho' sync for the Eq. (6) adaptive block budget: the
            # sender measures ACK-path loss and tells the receiver.
            meta["ack_loss_rate"] = self.ack_loss.loss_rate
            if self._tel is not None and rtt_min != self._tel_last_rtt_min:
                # Value-change detection, not clock arithmetic: the
                # sync rides every data packet, but only changes are
                # worth an event.
                self._tel_last_rtt_min = rtt_min
                self._tel.emit("timing", "rttmin_sync", self.flow_id,
                               rtt_min_s=rtt_min)
        # Site-local stride counter: this is the sender's hottest
        # telemetry site (one event per data packet), so dropped
        # events must not pay for a collector call.
        if self._tel_stride:
            n = self._tel_n + 1
            if n >= self._tel_stride:
                self._tel_n = 0
                self._tel.emit_kept("transport",
                                    "retx" if rec.retx_count else "send",
                                    self.flow_id, seq=rec.seq,
                                    pkt_seq=rec.pkt_seq, length=length,
                                    in_flight=self.in_flight)
            else:
                self._tel_n = n
        stats = self.stats
        stats.data_packets_sent += 1
        stats.bytes_sent += length
        # Pacer.on_sent, inline (test_pacer_fold_matches_on_sent).
        pacer = self.pacer
        release_at = pacer.release_at
        pacer.release_at = ((now if release_at < now else release_at)
                            + pkt.size * 8.0 / pacer._rate_bps)
        # The link's verdict feeds the watchdog: only *accepted* sends
        # count as "data still flowing" (a blacked-out link refuses at
        # ingress, so a dead path never looks like ACK withholding).
        if self._port.send(pkt) is not False:
            self._accepts_since_probe += 1

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def _on_send_timer(self) -> None:
        self._send_timer = None
        self._try_send()

    def _rearm_rto(self, progress: bool = False) -> None:
        """One timeout per flow: armed while bytes are in flight or a
        retransmission is queued, and due one RTO after the last
        progress.  A deadline that recedes (every ACK that makes
        progress, unless the RTO just shrank by more than the time
        since the last one) moves the armed event; only an earlier one
        costs a cancel and a push."""
        if self.closed:
            return
        timer = self._rto_timer
        if timer is not None and not progress and self.in_flight > 0:
            return
        if self.in_flight > 0 or self._has_retx():
            sim = self.sim
            deadline = sim.clock._now + self.rtt.rto()
            if timer is None:
                self._rto_timer = sim.call_at(deadline, self._on_rto)
            # Due at its entry's key or its move mark's (never cancelled).
            elif deadline >= (timer[0] if timer[3] is None else timer[3][0]):
                sim.move(timer, deadline)
            else:
                sim.cancel(timer)
                self._rto_timer = sim.call_at(deadline, self._on_rto)
        elif timer is not None:
            self.sim.cancel(timer)
            self._rto_timer = None

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.closed or (self.in_flight == 0 and not self._has_retx()):
            return
        self.stats.rtos += 1
        self._consecutive_rtos += 1
        if self._consecutive_rtos > self.max_rto_retries:
            # The exponential backoff (capped at rtt.max_rto_s) ran its
            # course without a single byte acknowledged: the path is
            # gone.  End observable rather than retry into the void.
            self._abort("rto_exhausted", attempts=self._consecutive_rtos,
                        detail=f"{self.max_rto_retries} consecutive RTOs "
                               "without progress")
            return
        self._obs("rto", rto_s=self.rtt.rto(), in_flight=self.in_flight)
        # RTO recovery shadows pull recovery until the recovery point
        # (everything outstanding at the timeout) is acknowledged.
        self._recovery_high = self.next_seq
        self._note_recovery("rto")
        self.rtt.back_off()
        now = self.sim.now()
        self.cc.on_rto(now)
        self.pacer.set_rate(self.cc.pacing_rate_bps())
        # A timeout also voids pacing debt charged at a since-replaced
        # rate (one packet at a hostile 3.5 bps report is 20 minutes):
        # it must not pacing-block the timeout's own retransmission —
        # with nothing in flight neither this timer nor the watchdog
        # would ever fire again.
        self.pacer.forgive(now, self.mss + HEADER_SIZE)
        # A timeout declares *everything* outstanding lost (RFC 6298
        # recovery; Linux tcp_timeout_mark_lost does the same).  Marking
        # only the first segment livelocks after a burst outage: the
        # window stays clogged with presumed-in-flight bytes, nothing
        # new flows to trigger dupACK/RACK detection, and Karn's rule
        # blocks fresh RTT samples — recovery crawls at one segment per
        # backoff-capped RTO.  The governor is not asked.
        for rec in self._unsacked_records():
            self._mark_record_lost(rec, now)
        self._try_send()
        self._rearm_rto(progress=True)

    def _persist_interval(self) -> float:
        """Zero-window probe interval: exponential from 2*srtt, capped
        so a long stall still probes at least every 10 s."""
        base = max(2 * self.rtt.smoothed(), 0.2)
        return min(base * (2.0 ** self._persist_attempts), 10.0)

    def _maybe_arm_persist(self) -> None:
        # Window-blocked with nothing in flight: without a probe the
        # connection would deadlock if the opening ACK is lost.
        if self.closed or self.in_flight > 0 or self._persist_timer is not None:
            return
        self._persist_timer = self.sim.call_in(
            self._persist_interval(), self._on_persist
        )

    def _on_persist(self) -> None:
        self._persist_timer = None
        if self.closed:
            return
        if self.awnd > 0:
            self._persist_attempts = 0
            self._try_send()
            return
        self._persist_attempts += 1
        if self._persist_attempts > self.max_persist_retries:
            # The receiver's window never reopened and every probe went
            # unanswered; classic stacks abort here too.
            self._abort("persist_exhausted", attempts=self._persist_attempts,
                        detail=f"{self.max_persist_retries} zero-window "
                               "probes unanswered")
            return
        self.stats.persist_probes += 1
        self._obs("persist", attempts=self._persist_attempts)
        # Window probe: retransmit the first unacked segment (or send
        # one new segment) ignoring the zero window.
        now = self.sim.now()
        rec = self._first_unacked_record()
        if rec is not None:
            self._mark_record_lost(rec, now)
            if self._has_retx():
                self._transmit_retx(self.retx_queue.popleft(), now)
        elif self.unlimited or self.pending_bytes > 0:
            self._transmit_new(self.mss if self.unlimited
                               else min(self.mss, self.pending_bytes), now)
        self._maybe_arm_persist()

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self.closed:
            return
        # Guard summary first (rate-limited violation counters), then
        # the close event: the flow doctor finalizes on "close", so the
        # summary must already be on record.
        if self.guard is not None:
            self.guard.emit_summary()
        # The close event is emitted before the flag flips so the flow
        # doctor finalizes the flow exactly once, at this timestamp.
        self._obs("close", cum_acked=self.cum_acked)
        self.closed = True
        for timer in (self._send_timer, self._rto_timer,
                      self._persist_timer, self._wd_timer):
            if timer is not None:
                self.sim.cancel(timer)
        self._send_timer = self._rto_timer = self._persist_timer = None
        self._wd_timer = None
        if self._en is not None:
            self._en.flow_closed(self.flow_id)

    def goodput_bps(self, duration: Optional[float] = None) -> float:
        """Cumulatively acknowledged bytes over ``duration`` (defaults
        to the current simulation time)."""
        if duration is None:
            duration = self.sim.now()
        if duration <= 0:
            return 0.0
        return self.cum_acked * 8.0 / duration

    def __repr__(self) -> str:
        return (
            f"TransportSender(cum_acked={self.cum_acked}, "
            f"in_flight={self.in_flight}, cwnd={self.cc.cwnd_bytes()})"
        )
