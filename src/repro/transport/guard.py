"""Feedback validation guard: the sender's peer-trust boundary.

TACK deliberately moves control to the receiver — retransmissions are
*pulled* by IACKs, RTT_min comes from echoed departure stamps, the
delivery rate arrives pre-computed — so a buggy or adversarial peer
holds levers a classic TCP receiver never had.  The
:class:`FeedbackValidator` checks every :class:`~repro.transport.
feedback.AckFeedback` against ground truth the sender already holds:

=================  ====================================================
rule               violated when
=================  ====================================================
``format``         the frame fails :func:`~repro.transport.feedback.
                   check_wire_form` (wrong types/shapes); the whole
                   frame is dropped
``cum_ack``        ``cum_ack`` is negative or beyond ``snd_nxt`` —
                   acknowledging data never sent (optimistic ACK);
                   the field is reset to the last good value
``fb_seq_replay``  ``fb_seq`` is older than the highest seen minus the
                   reorder window (replay); dropped from the rho'
                   estimate
``fb_seq_skip``    ``fb_seq`` jumps ahead by more than ``fb_seq_max_
                   skip`` (would fake ACK-path loss); dropped from rho'
``sack_range``     an acked-list block falls outside ``[0, snd_nxt)``
                   or is empty/inverted; offending blocks are dropped
``unacked_range``  same for the unacked list
``pull_range``     the IACK pull range (or ``largest_pkt_seq``) names
                   PKT.SEQs never sent; the pull is dropped
``pull_flood``     in-range pulls demand more retransmission than the
                   per-RTT budget (``pull_budget``); excess dropped
``awnd``           the advertised window is negative or absurd
                   (> ``AWND_MAX``); previous value kept
``echo_ts``        the echoed departure timestamp was never stamped on
                   a data packet (or lies in the future); timing fields
                   are stripped
``tack_delay``     the claimed hold delay is negative or larger than
                   the time since the echoed departure (would fake a
                   tiny RTT); timing fields are stripped
``rate``           ``delivery_rate_bps`` is negative, implausibly above
                   what the sender ever sent, or below one sent segment
                   per connection lifetime; ``rx_loss_rate`` outside
                   [0, 1]; the field is dropped/clamped
``withheld``       the ACK-withholding watchdog probed: feedback
                   stopped while accepted sends kept flowing
=================  ====================================================

Policy: **tolerate -> clamp -> escalate**.  Every violation is counted
per rule and the offending *field* is clamped or dropped so the frame's
remaining information is still used (a single bad block must not stall
recovery); the first ``trace_limit`` violations per rule emit a
``guard``/``violation`` telemetry event, later ones only count (a
mangling peer cannot blow up the trace) and the final totals go out
in one ``guard``/``summary`` event at close.  When
one rule's count reaches ``escalate_after`` (or the total reaches
``escalate_total``) the guard escalates and the sender aborts with the
structured reason ``misbehaving_peer`` — observable, classifiable,
never a hang or a crash.  Strict mode (``REPRO_GUARD_STRICT=1`` or
``GuardConfig(strict=True)``) escalates on the *first* violation; the
false-positive suite runs the whole chaos matrix in strict mode to
prove legitimate feedback never trips a rule.

The watchdog is the T-RACKs-style last resort (PAPERS.md): when all
feedback stops but the network keeps *accepting* data packets, RTO
exhaustion alone would take minutes (backoff) or never fire (a peer
acking everything except the tail).  The sender probes up to
``watchdog_probes`` times — each probe retransmits the first unacked
segment — and aborts ``misbehaving_peer`` when every probe window
passes in silence.  Probes require accepted sends since the previous
probe, so a dead *path* (sends refused at ingress) still ends in the
honest ``rto_exhausted``.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Optional, TYPE_CHECKING

from repro.transport.errors import FeedbackFormatError
from repro.transport.feedback import AckFeedback, check_wire_form, clone_feedback

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transport.sender import TransportSender

#: Largest advertised window the guard accepts (256 TiB — far beyond
#: any simulated buffer, small enough to reject garbage like 2**62).
AWND_MAX = 1 << 48

#: Stable rule vocabulary (DESIGN.md section 17); telemetry events,
#: diagnosis reports, and tests all key on these strings.
RULES = (
    "format", "cum_ack", "fb_seq_replay", "fb_seq_skip", "sack_range",
    "unacked_range", "pull_range", "pull_flood", "awnd", "echo_ts",
    "tack_delay", "rate", "withheld",
)

_EPS = 1e-9


def resolve_strict(strict: Optional[bool]) -> bool:
    """Explicit setting wins; else the ``REPRO_GUARD_STRICT`` env var
    (same convention as ``repro.sanitize.resolve``)."""
    if strict is not None:
        return strict
    return os.environ.get("REPRO_GUARD_STRICT", "") not in ("", "0")


@dataclass(frozen=True)
class GuardConfig:
    """Tuning knobs of the feedback guard (defaults are deliberately
    generous: the false-positive property — no rule fires on legitimate
    feedback across the chaos matrix — is part of the test suite)."""

    enabled: bool = True
    #: None -> consult ``REPRO_GUARD_STRICT``; strict escalates on the
    #: first violation (used by the false-positive suite).
    strict: Optional[bool] = None
    #: One rule reaching this count escalates to ``misbehaving_peer``.
    escalate_after: int = 64
    #: ... as does the sum over all rules reaching this.
    escalate_total: int = 256
    #: ... as does one rule firing on this many *consecutive* frames.
    #: Absolute counts starve when feedback only arrives at RTO cadence
    #: (an optimistic acker collapses the window, so a legacy scheme
    #: sees ~1 frame per backed-off RTO); a persistent per-frame attack
    #: is unmistakable long before ``escalate_after``.  Legitimate
    #: feedback never fires a rule at all, so any run is adversarial.
    escalate_consecutive: int = 8
    #: Per rule, violations after the first ``trace_limit`` are counted
    #: but not traced (satellite: bounded event volume per rule).
    trace_limit: int = 5
    #: Feedback reordering tolerance before an old fb_seq is a replay:
    #: the *floor* in frames.  Lateness in frames is delay disturbance
    #: x feedback rate (a 500 ms route flip under per-packet acking
    #: delays hundreds of frames), so the effective window is
    #: ``max(floor, peak fb rate x fb_seq_reorder_s)``.
    fb_seq_reorder_window: int = 256
    #: Time span of legitimate feedback lateness the replay rule must
    #: tolerate (route flips, delay spikes); see above.
    fb_seq_reorder_s: float = 2.0
    #: Largest accepted forward jump in fb_seq (a bigger skip would
    #: fake catastrophic ACK-path loss).
    fb_seq_max_skip: int = 4096
    #: How long a departure stamp stays echoable.
    echo_window_s: float = 10.0
    #: delivery_rate_bps cap: ``rate_slack`` x the sender's own *peak*
    #: send rate (max over inter-feedback intervals — a lifetime
    #: average would collapse during a legitimate zero-window stall and
    #: reject the honest post-drain report), floored at
    #: ``rate_floor_bps`` for the startup phase.
    rate_slack: float = 16.0
    rate_floor_bps: float = 50e6
    #: In-range pull budget per srtt window: ``pull_budget_mult`` x the
    #: effective window (in packets), floored at ``pull_budget_floor``.
    pull_budget_mult: float = 6.0
    pull_budget_floor: int = 128
    #: ACK-withholding watchdog (see module docstring).
    watchdog: bool = True
    watchdog_rto_mult: float = 4.0
    watchdog_floor_s: float = 1.0
    #: Silence threshold ceiling.  The RTO backs off exponentially
    #: during exactly the silence the watchdog watches for, so an
    #: uncapped ``mult x rto`` threshold outruns the silence forever
    #: and the probe never fires.
    watchdog_cap_s: float = 10.0
    watchdog_probes: int = 3
    watchdog_min_sends: int = 1


class FeedbackValidator:
    """Validates every feedback frame against sender ground truth.

    ``admit`` returns the (possibly sanitized) frame to process, or
    ``None`` when the whole frame must be discarded; :attr:`escalated`
    flips once the tolerate budget is spent, after which the sender
    aborts ``misbehaving_peer``.  Sanitizing never mutates the
    receiver's object — a clone is made on the first violation.
    """

    def __init__(self, sender: "TransportSender",
                 config: Optional[GuardConfig] = None):
        self.sender = sender
        self.cfg = config or GuardConfig()
        self.strict = resolve_strict(self.cfg.strict)
        self.counts: dict[str, int] = {}
        self.total = 0
        self.frames = 0
        self.escalated = False
        self.escalation_rule: Optional[str] = None
        # Departure stamps, ascending, as unboxed doubles (8 bytes
        # each); those before the head aged out.
        self._stamps = array("d")
        self._stamp_head = 0
        self._stamp_prune_len = 2
        self._fb_seq_max = -1
        self._fb_seq_last: Optional[int] = None
        self._fb_seq_run = 0
        # Peak feedback rate (frames/s) — sizes the replay window.
        self._fb_rate_mark: Optional[tuple[float, int]] = None
        self._peak_fb_rate = 0.0
        # Per-rule consecutive-frame runs (escalate_consecutive).
        self._frame_rules: set[str] = set()
        self._consec: dict[str, int] = {}
        # Pull budget window: hull of PKT.SEQ space named this window.
        self._pull_window_start = 0.0
        self._pull_hull: Optional[tuple[int, int]] = None
        self._pull_window_pkts = 0
        # Peak send rate (ground truth for the delivery-rate cap).
        self._rate_mark: Optional[tuple[float, int]] = None
        self._peak_send_bps = 0.0
        # First data departure and smallest segment sent (ground truth
        # for the delivery-rate floor).
        self._first_sent_s: Optional[float] = None
        self._min_seg_bytes = 0
        # The frame being admitted and what admit() will return for it.
        self._frame: Optional[AckFeedback] = None
        self._out: Optional[AckFeedback] = None

    # ------------------------------------------------------------------
    # bookkeeping fed by the sender
    # ------------------------------------------------------------------
    def on_data_sent(self, now: float, length_bytes: int) -> None:
        """Record a data-packet departure stamp (TACK timing ground
        truth) and segment size.  Time is monotone: appending keeps the
        stamps sorted, and a repeated time is the last entry.  A stamp
        is echoable until it is older than the last departure minus
        ``echo_window_s``; the array is pruned when :meth:`admit` asks,
        and here once it has doubled since the last prune (a flow whose
        feedback stops stays bounded)."""
        if self._first_sent_s is None:
            self._first_sent_s = now
            self._min_seg_bytes = length_bytes
        elif length_bytes < self._min_seg_bytes:
            self._min_seg_bytes = length_bytes
        stamps = self._stamps
        if not stamps or stamps[-1] < now:
            stamps.append(now)
            if len(stamps) >= self._stamp_prune_len:
                self._prune_stamps()

    def _prune_stamps(self) -> None:
        """Move the head past the stamps that aged out; compact once
        the head passes the middle of the array."""
        stamps = self._stamps
        if stamps:
            head = bisect_left(stamps, stamps[-1] - self.cfg.echo_window_s,
                               self._stamp_head)
            if 2 * head > len(stamps):
                del stamps[:head]
                head = 0
            self._stamp_head, self._stamp_prune_len = head, 2 * len(stamps)

    def _stamped(self, ts: float) -> bool:
        """Is ``ts`` an echoable stamp (asked after a prune)?"""
        i = bisect_left(self._stamps, ts, self._stamp_head)
        return i < len(self._stamps) and not ts < self._stamps[i]

    # ------------------------------------------------------------------
    # violation machinery
    # ------------------------------------------------------------------
    def _escalate_after(self) -> int:
        return 1 if self.strict else self.cfg.escalate_after

    def _escalate_total(self) -> int:
        return 1 if self.strict else self.cfg.escalate_total

    def violate(self, rule: str, detail: str) -> None:
        """Count one violation of ``rule``; trace the first few and
        escalate when the budget is spent."""
        count = self.counts.get(rule, 0) + 1
        self.counts[rule] = count
        self.total += 1
        self._frame_rules.add(rule)
        if count <= self.cfg.trace_limit:
            self.sender._obs("violation", "guard", rule=rule, count=count,
                             detail=detail)
        if (count >= self._escalate_after()
                or self.total >= self._escalate_total()):
            self._escalate(rule)

    def _escalate(self, rule: str) -> None:
        if self.escalated:
            return
        self.escalated = True
        self.escalation_rule = rule
        self.sender._obs("escalated", "guard", rule=rule,
                         count=self.counts.get(rule, 0), total=self.total)

    def _end_frame(self) -> None:
        """Close one frame's accounting: advance the consecutive-run
        counter of every rule that fired, reset the ones that did not,
        and escalate on a run of ``escalate_consecutive`` frames.
        Called only when a rule fired or a run is open: a clean frame
        after a clean frame has nothing to close."""
        for rule in list(self._consec):
            if rule not in self._frame_rules:
                del self._consec[rule]
        for rule in self._frame_rules:
            run = self._consec.get(rule, 0) + 1
            self._consec[rule] = run
            if run >= self.cfg.escalate_consecutive:
                self._escalate(rule)
        self._frame_rules = set()

    def note_withheld(self) -> None:
        """Count one watchdog probe under the ``withheld`` rule.

        Deliberately outside :meth:`violate`'s escalation accounting:
        a couple of probes happen on legitimate blackouts (silence
        looks the same from the sender until the link refuses sends),
        so probes must neither trip strict mode nor drain the
        escalation budget — the watchdog escalates by its own probe
        count.
        """
        self.counts["withheld"] = self.counts.get("withheld", 0) + 1

    def emit_summary(self) -> None:
        """One ``guard``/``summary`` event with the final per-rule
        counts (the tail of the rate-limited violation stream)."""
        if self.total == 0:
            return
        self.sender._obs("summary", "guard", total=self.total,
                         frames=self.frames, **self.counts)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _sanitized(self) -> AckFeedback:
        """The frame corrections are written to: a clone of the one
        being admitted, made at the first violation."""
        if self._out is self._frame:
            self._out = clone_feedback(self._frame)
        return self._out

    def _admit_blocks(self, attr: str, rule: str) -> None:
        """Keep the blocks of one non-empty list that lie inside the
        sent byte range; one violation of ``rule`` if any does not.
        ``admit`` tests the same bounds in place first; checked by
        test_guard.py ``test_in_place_check_agrees_with_the_helper``."""
        blocks = getattr(self._frame, attr)
        snd_nxt = self.sender.next_seq
        for bad in blocks:
            if not 0 <= bad[0] < bad[1] <= snd_nxt:
                self.violate(rule, f"block {bad!r} outside [0, {snd_nxt})")
                setattr(self._sanitized(), attr,
                        [b for b in blocks if 0 <= b[0] < b[1] <= snd_nxt])
                break

    def admit(self, fb: Any, now: float) -> Optional[AckFeedback]:
        """Validate one frame; returns a safe frame or ``None``."""
        self.frames += 1
        snd = self.sender
        try:
            check_wire_form(fb)
        except FeedbackFormatError as exc:
            # Nothing in the frame can be trusted: drop it whole.
            self.violate("format", str(exc))
            self._end_frame()
            return None

        self._frame = self._out = fb

        # --- cumulative ACK against snd_nxt -------------------------
        if fb.cum_ack < 0 or fb.cum_ack > snd.next_seq:
            self.violate("cum_ack",
                         f"cum_ack={fb.cum_ack} outside [0, {snd.next_seq}]")
            # Reset to the last good value: an optimistic ACK must not
            # fake progress (clamping to snd_nxt would ack everything).
            self._sanitized().cum_ack = snd.cum_acked

        # --- advertised window --------------------------------------
        if fb.awnd < 0 or fb.awnd > AWND_MAX:
            self.violate("awnd", f"awnd={fb.awnd}")
            self._sanitized().awnd = min(max(snd.awnd, 0), AWND_MAX)

        # --- feedback sequence number -------------------------------
        # Peak feedback rate over >= 100 ms spans sizes the replay
        # window: a route flip's +delta delay makes honest frames
        # arrive (delta x fb rate) positions late, far past any fixed
        # frame count under per-packet acking.
        cfg = self.cfg
        if self._fb_rate_mark is None:
            self._fb_rate_mark = (now, self.frames)
        else:
            t0, n0 = self._fb_rate_mark
            if now - t0 >= 0.1:
                rate = (self.frames - n0) / (now - t0)
                if rate > self._peak_fb_rate:
                    self._peak_fb_rate = rate
                self._fb_rate_mark = (now, self.frames)
        fb_seq, high = fb.fb_seq, self._fb_seq_max
        if fb_seq is not None:
            # The receiver never reuses fb_seq; the network may
            # duplicate a frame once or twice, but a long run of the
            # *same* value is a frozen/replayed counter masking real
            # ACK-path loss from the rho' estimate.
            if fb_seq == self._fb_seq_last:
                self._fb_seq_run += 1
            else:
                self._fb_seq_last = fb_seq
                self._fb_seq_run = 1
            if fb_seq < 0:
                self.violate("fb_seq_replay", f"fb_seq={fb_seq}")
                self._sanitized().fb_seq = None
            elif self._fb_seq_run > 8:
                self.violate("fb_seq_replay",
                             f"fb_seq={fb_seq} repeated "
                             f"{self._fb_seq_run} times")
                self._sanitized().fb_seq = None
            elif high >= 0 and (
                    # below the window max(floor, peak rate x span):
                    # the rate term is worth reading only below the floor
                    fb_seq < high - cfg.fb_seq_reorder_window
                    and fb_seq < high - int(self._peak_fb_rate
                                            * cfg.fb_seq_reorder_s)):
                self.violate("fb_seq_replay",
                             f"fb_seq={fb_seq} << max={high}")
                self._sanitized().fb_seq = None
            elif high >= 0 and fb_seq > high + cfg.fb_seq_max_skip:
                # Do NOT advance the high-water mark: one absurd skip
                # must not turn every later legitimate fb_seq into a
                # "replay".
                self.violate("fb_seq_skip",
                             f"fb_seq={fb_seq} >> max={high}")
                self._sanitized().fb_seq = None
            elif fb_seq > high:
                self._fb_seq_max = fb_seq

        # --- block lists against sent byte ranges -------------------
        # In place; the helper runs only for a list with a bad block.
        snd_nxt = snd.next_seq
        for start, end in fb.sack_blocks:
            if not 0 <= start < end <= snd_nxt:
                self._admit_blocks("sack_blocks", "sack_range")
                break
        for start, end in fb.unacked_blocks:
            if not 0 <= start < end <= snd_nxt:
                self._admit_blocks("unacked_blocks", "unacked_range")
                break

        # --- PKT.SEQ-space claims -----------------------------------
        sent_top = snd.next_pkt_seq - 1
        if fb.largest_pkt_seq is not None and not (
                0 <= fb.largest_pkt_seq <= sent_top):
            self.violate("pull_range",
                         f"largest_pkt_seq={fb.largest_pkt_seq} > {sent_top}")
            self._sanitized().largest_pkt_seq = None
        pull = fb.pull_pkt_range
        if pull is not None:
            lo, hi = pull
            if not (0 <= lo <= hi <= sent_top):
                self.violate("pull_range",
                             f"pull {pull!r} outside [0, {sent_top}]")
                self._sanitized().pull_pkt_range = None
            else:
                # In-range pull: charge the per-RTT retransmission
                # budget (a flood of valid-looking pulls would bypass
                # the governor, paper S5.1's certain-loss rule).  The
                # charge is *hull growth* — newly named PKT.SEQ space —
                # because a legitimate receiver re-pulls the same loss
                # range every TACK until it fills; re-demanding is
                # free, demanding ever more distinct space is not.
                window = max(snd.rtt.smoothed(), 1e-3)
                if now - self._pull_window_start > window:
                    self._pull_window_start = now
                    self._pull_hull = None
                    self._pull_window_pkts = 0
                hull = self._pull_hull
                if hull is None:
                    growth = max(hi - lo - 1, 0)
                    hull = (lo, hi)
                else:
                    merged = (min(lo, hull[0]), max(hi, hull[1]))
                    growth = ((merged[1] - merged[0])
                              - (hull[1] - hull[0]))
                    hull = merged
                self._pull_hull = hull
                self._pull_window_pkts += max(growth, 0)
                # Budget: the unacked horizon is the only space a
                # truthful receiver can be missing (the effective
                # window alone under-counts right after a loss burst
                # collapses cwnd below what was in flight).
                unacked_pkts = max(
                    (snd.next_seq - snd.cum_acked) // max(snd.mss, 1), 1)
                budget = max(self.cfg.pull_budget_floor,
                             int(self.cfg.pull_budget_mult * unacked_pkts))
                if self._pull_window_pkts > budget:
                    self.violate("pull_flood",
                                 f"{self._pull_window_pkts} pulled pkts "
                                 f"in one rtt > budget {budget}")
                    self._sanitized().pull_pkt_range = None

        # --- echoed timing (TACK mode only: legacy senders never
        # consume these fields) ---------------------------------------
        if snd.receiver_driven:
            echo = fb.echo_departure_ts
            if echo is not None or fb.packet_delays:
                self._prune_stamps()
            if echo is not None:
                if not self._stamped(echo) or echo > now + _EPS:
                    self.violate("echo_ts", f"echo_ts={echo!r} never stamped")
                    s = self._sanitized()
                    s.echo_departure_ts = None
                    s.tack_delay = None
                elif fb.tack_delay is not None and not (
                        -_EPS <= fb.tack_delay <= (now - echo) + _EPS):
                    self.violate("tack_delay",
                                 f"tack_delay={fb.tack_delay!r} outside "
                                 f"[0, {now - echo:.6f}]")
                    s = self._sanitized()
                    s.echo_departure_ts = None
                    s.tack_delay = None
            if fb.packet_delays:
                good_delays = [
                    (ts, d) for ts, d in fb.packet_delays
                    if self._stamped(ts) and -_EPS <= d <= (now - ts) + _EPS
                ]
                if len(good_delays) != len(fb.packet_delays):
                    self.violate("echo_ts",
                                 f"{len(fb.packet_delays) - len(good_delays)} "
                                 "per-packet delay entries never stamped")
                    self._sanitized().packet_delays = good_delays

        # --- receiver-measured rates --------------------------------
        # Peak send rate over inter-feedback intervals (>= 1 ms): the
        # receiver can never legitimately *deliver* faster than the
        # sender ever sent, but a lifetime average is the wrong bound —
        # it decays through a zero-window stall while the receiver's
        # honest report still reflects the pre-stall line-rate burst.
        sent_bytes = snd.stats.bytes_sent
        if self._rate_mark is None:
            self._rate_mark = (now, sent_bytes)
        else:
            t0, b0 = self._rate_mark
            if now - t0 >= 1e-3:
                send_bps = (sent_bytes - b0) * 8.0 / (now - t0)
                if send_bps > self._peak_send_bps:
                    self._peak_send_bps = send_bps
                self._rate_mark = (now, sent_bytes)
        rate = fb.delivery_rate_bps
        if rate is not None and rate < 0:
            self.violate("rate", f"delivery_rate_bps={rate!r}")
            self._sanitized().delivery_rate_bps = None
        elif rate is not None:
            cap = max(self.cfg.rate_floor_bps,
                      self.cfg.rate_slack * self._peak_send_bps)
            if rate > cap:
                self.violate("rate",
                             f"delivery_rate_bps={rate:.3g} > cap {cap:.3g}")
                self._sanitized().delivery_rate_bps = None
            elif self._first_sent_s is not None and now > self._first_sent_s:
                # Floor: every receiver rate sample is >= one segment
                # over an arrival span that cannot predate the first
                # data departure.  A lower claim would have the pacer
                # charge one packet minutes of debt.
                floor = (self._min_seg_bytes * 8.0
                         / (now - self._first_sent_s))
                if rate < floor:
                    self.violate("rate", f"delivery_rate_bps={rate:.3g} "
                                         f"< floor {floor:.3g}")
                    self._sanitized().delivery_rate_bps = None
        if fb.rx_loss_rate is not None and not (0.0 <= fb.rx_loss_rate <= 1.0):
            self.violate("rate", f"rx_loss_rate={fb.rx_loss_rate!r}")
            self._sanitized().rx_loss_rate = min(max(fb.rx_loss_rate, 0.0), 1.0)

        if self._frame_rules or self._consec:
            self._end_frame()
        out, self._frame, self._out = self._out, None, None
        return out
