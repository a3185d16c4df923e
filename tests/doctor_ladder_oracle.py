"""The flow doctor's ingestion as it stood before the vocabulary became
one table (commit 5987d8a), kept verbatim as the oracle for
``tests/test_diagnose.py::TestLadderOracle``: two frozensets and an
if/elif ladder per category in ``DiagnosisEngine.observe``, a
``reclassify`` after every event, ``check_starvation`` called on every
event with its early-outs inside, and per-handler signatures.  The
table-dispatched ``DiagnosisEngine.fold`` must produce the identical
report for any event stream.  What the change did not touch
(``_classify``, ``_transition``, ``end_starvation``, ``finalize`` and
the report side of the engine) is inherited from ``repro.diagnose.engine``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.diagnose import engine
from repro.diagnose.states import ACK_STARVED

#: The diagnosis event vocabulary: exactly the events sites emit
#: through the probe bus.  Offline replay feeds *whole traces* through
#: the engine, so anything outside this set (sampled per-packet sites,
#: cc/update, rttmin_sync, netsim/chaos categories) must be dropped
#: here — before the per-flow evidence-offset counter — or live and
#: offline offsets would disagree.
TRANSPORT_VOCAB = frozenset({
    "open", "established", "limited", "recovery", "persist", "rto",
    "feedback", "complete", "abort", "close",
})

#: Feedback-guard events (all four are diagnosis vocabulary; the
#: validator rate-limits ``violation`` traces itself, identically live
#: and in the recorded trace, so offsets agree across planes).
GUARD_VOCAB = frozenset({
    "violation", "watchdog_probe", "escalated", "summary",
})


class _FlowDiagnosis(engine._FlowDiagnosis):
    """HEAD's per-flow handlers (no ``__slots__``: ``srtt`` lives in the
    instance dict now that the reducer dropped the write-only slot)."""

    def reclassify(self, t: float) -> None:
        desired = self._classify()
        if desired != self.state:
            self._transition(desired, t)

    def check_starvation(self, t: float) -> None:
        """Retroactive ACK-starvation entry, checked on every
        observation: if feedback silence already exceeds the
        threshold, the starved interval began at the threshold
        boundary, not at this (later) observation."""
        if self.starved or self.last_fb_t is None or self.rtt_min is None:
            return
        if (self.t_established is None or self.completed
                or self.abort_reason is not None
                or self.recovery != "none" or self.limit == "rwnd"
                or self.in_flight <= 0):
            return
        threshold = self.cfg.starve_threshold_s(self.rtt_min)
        if t - self.last_fb_t > threshold:
            boundary = self.last_fb_t + threshold
            if boundary < self.state_since:
                boundary = self.state_since
            self.starved = True
            self.starve_start = boundary
            self._transition(ACK_STARVED, boundary)

    # -- event handlers ----------------------------------------------
    def on_established(self, t: float, fields: Dict[str, Any]) -> None:
        self.t_established = t
        rtt0 = fields.get("rtt_s")
        if isinstance(rtt0, (int, float)) and rtt0 > 0:
            self.rtt_min = float(rtt0)
            self.srtt = float(rtt0)
        # The handshake round trip counts as feedback: the starvation
        # window opens at establishment, not at the first data ACK.
        self.last_fb_t = t

    def on_limited(self, fields: Dict[str, Any]) -> None:
        limit = fields.get("limit")
        if isinstance(limit, str):
            self.limit = limit

    def on_recovery(self, t: float, fields: Dict[str, Any]) -> None:
        mode = fields.get("mode", "none")
        if mode != "none":
            self.end_starvation(t)
        self.recovery = mode if isinstance(mode, str) else "none"

    def on_rto(self, t: float, fields: Dict[str, Any]) -> None:
        self.end_starvation(t)
        self.n_rtos += 1
        self.rto_pending_t = t
        rto_s = fields.get("rto_s")
        self.rto_armed_s = (
            float(rto_s) if isinstance(rto_s, (int, float)) and rto_s > 0
            else None)
        in_flight = fields.get("in_flight")
        if isinstance(in_flight, int):
            self.in_flight = in_flight

    def on_feedback(self, t: float, fields: Dict[str, Any]) -> None:
        self.end_starvation(t)
        acked = fields.get("acked_bytes")
        acked = acked if isinstance(acked, int) else 0
        if acked > 0:
            # Byte-weighted attribution: delivery confirmed now was
            # earned under the state in force while waiting for it.
            self.state_bytes[self.state] = (
                self.state_bytes.get(self.state, 0) + acked)
            self.bytes_acked += acked
        in_flight = fields.get("in_flight")
        if isinstance(in_flight, int):
            self.in_flight = in_flight
        self.n_feedback += 1
        fb_seq = fields.get("fb_seq")
        if isinstance(fb_seq, int):
            self.fb_seen += 1
            if self.max_fb_seq is None or fb_seq > self.max_fb_seq:
                self.max_fb_seq = fb_seq
        rho = fields.get("rho_est")
        if isinstance(rho, (int, float)):
            self.rho_est = float(rho)
        if self.rto_pending_t is not None and acked > 0:
            # Progress sooner than a minimum RTT after the timeout:
            # the acknowledgment was already in flight when the timer
            # fired, so the RTO itself was spurious (Eifel-style
            # detection without timestamps).
            if (self.rtt_min is not None
                    and t - self.rto_pending_t
                    < self.cfg.spurious_rtt_frac * self.rtt_min):
                self.spurious_rtos.append((t, self.obs))
            self.rto_pending_t = None
            self.rto_armed_s = None
        self.last_fb_t = t

    def on_rtt(self, t: float, fields: Dict[str, Any]) -> None:
        # Eifel-lite, second signature: a *valid* RTT sample larger
        # than the timer that just fired proves the outstanding data
        # was delayed, not lost (Karn's rule already excludes samples
        # from retransmitted segments), so the timeout was spurious.
        # Catches route flips / bufferbloat that the fast-feedback
        # rule in on_feedback cannot, because there the delayed ACKs
        # arrive a full (new) RTT after the timer.
        sample = fields.get("rtt_s")
        if (self.rto_pending_t is not None
                and self.rto_armed_s is not None
                and isinstance(sample, (int, float))
                and sample > self.rto_armed_s):
            self.spurious_rtos.append((t, self.obs))
            self.rto_pending_t = None
            self.rto_armed_s = None
        rtt_min = fields.get("rtt_min_s")
        if isinstance(rtt_min, (int, float)) and rtt_min > 0:
            self.rtt_min = float(rtt_min)
        srtt = fields.get("srtt_s")
        if isinstance(srtt, (int, float)) and srtt > 0:
            self.srtt = float(srtt)

    def on_degrade(self, t: float, fields: Dict[str, Any]) -> None:
        on = bool(fields.get("on"))
        self.degraded = on
        if on:
            self.n_degrade_on += 1
            self.degrade_offsets.append(self.obs)

    def on_guard(self, name: str, fields: Dict[str, Any]) -> None:
        """Fold one feedback-guard event into the evidence.

        ``violation`` traces are rate-limited at the source, so the
        per-rule counts here are running maxima refreshed by the
        ``summary`` event's authoritative totals at close.
        """
        if name == "violation":
            rule = fields.get("rule")
            count = fields.get("count")
            if isinstance(rule, str) and isinstance(count, int):
                if count > self.guard_violations.get(rule, 0):
                    self.guard_violations[rule] = count
                if len(self.guard_offsets) < 8:
                    self.guard_offsets.append(self.obs)
        elif name == "watchdog_probe":
            probes = fields.get("probes")
            if isinstance(probes, int) and probes > self.guard_probes:
                self.guard_probes = probes
            if len(self.guard_offsets) < 8:
                self.guard_offsets.append(self.obs)
        elif name == "escalated":
            rule = fields.get("rule")
            if isinstance(rule, str):
                self.guard_escalated = rule
        elif name == "summary":
            for key, val in fields.items():
                if not isinstance(val, int):
                    continue
                if key == "total":
                    self.guard_total = max(self.guard_total, val)
                elif key != "frames":
                    if val > self.guard_violations.get(key, 0):
                        self.guard_violations[key] = val
        total = sum(self.guard_violations.values())
        if total > self.guard_total:
            self.guard_total = total


class LadderEngine(engine.DiagnosisEngine):
    """``DiagnosisEngine`` ingesting ``TraceEvent`` objects through the
    ladder."""

    def observe(self, event) -> None:
        """Fold one ``TraceEvent`` — the single ingestion step, driven
        by the live bus subscription and the offline replay loop."""
        t_s = event.time
        category = event.category
        name = event.name
        flow_id = event.flow_id
        fields = event.fields
        # Vocabulary gate first: the `ack` category is all-vocabulary
        # (feedback kinds + degrade), the others carry one or a few
        # diagnosis events amid hot-path noise.
        if category == "transport":
            if name not in TRANSPORT_VOCAB:
                return
        elif category == "timing":
            if name != "rtt_sample":
                return
        elif category == "cc":
            if name != "state":
                return
        elif category == "guard":
            if name not in GUARD_VOCAB:
                return
        elif category != "ack":
            return
        if category == "transport" and name == "open":
            if flow_id not in self._flows and flow_id not in self._done:
                total = fields.get("total_bytes")
                self._flows[flow_id] = _FlowDiagnosis(
                    self.config, flow_id, t_s,
                    total if isinstance(total, int) else None)
            return
        flow = self._flows.get(flow_id)
        if flow is None:
            return      # before open or after close: both paths drop it
        flow.obs += 1
        flow.last_t = t_s
        flow.check_starvation(t_s)
        if category == "transport":
            if name == "feedback":
                flow.on_feedback(t_s, fields)
            elif name == "limited":
                flow.on_limited(fields)
            elif name == "recovery":
                flow.on_recovery(t_s, fields)
            elif name == "rto":
                flow.on_rto(t_s, fields)
            elif name == "persist":
                flow.n_persists += 1
            elif name == "established":
                flow.on_established(t_s, fields)
            elif name == "complete":
                flow.completed = True
            elif name == "abort":
                reason = fields.get("reason")
                flow.abort_reason = (reason if isinstance(reason, str)
                                     else "unknown")
            elif name == "close":
                self._done[flow_id] = flow.finalize(t_s)
                del self._flows[flow_id]
                return
        elif category == "ack":
            if name == "degrade":
                flow.on_degrade(t_s, fields)
            else:
                flow.n_acks_emitted += 1
        elif category == "timing":
            if name == "rtt_sample":
                flow.on_rtt(t_s, fields)
        elif category == "cc":
            if name == "state":
                flow.n_cc_states += 1
        elif category == "guard":
            flow.on_guard(name, fields)
        flow.reclassify(t_s)
