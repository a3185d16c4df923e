"""The diagnosis reducer: observations in, per-flow reports out.

:class:`DiagnosisEngine` is a *pure stream reducer*: it consumes
``TraceEvent`` observations — the diagnosis event vocabulary, a strict
subset of the schema-v1 telemetry taxonomy — and folds them into
per-flow state timelines, byte-weighted attribution, and anomaly
findings.  It never reads a clock, never draws randomness, and never
looks at a file: both the live plane
(:class:`repro.diagnose.live.FlowDoctor`) and the offline plane
(:func:`repro.diagnose.offline.diagnose_trace`) drive the same
reducer with the same values in the same order, which is what makes
their reports byte-identical.

Evidence offsets in anomaly findings are indices into the *flow's own*
diagnosis-vocabulary event subsequence (``open`` is event 0), so they
mean the same thing live and offline regardless of how many unrelated
events the surrounding trace carries.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.diagnose.states import (
    ACK_STARVED,
    APP_LIMITED,
    CLOSING,
    CWND_LIMITED,
    DEGRADED_TACK,
    HANDSHAKE,
    PACING_LIMITED,
    PULL_RECOVERY,
    RTO_RECOVERY,
    RWND_LIMITED,
)

__all__ = [
    "DiagnosisConfig",
    "DiagnosisEngine",
    "canonical_json",
    "report_digest",
]

#: Report schema stamp (independent of the telemetry schema version).
REPORT_SCHEMA = "repro-diagnosis"
#: v2: per-flow ``guard`` block + the ``misbehaving-peer`` anomaly
#: (feedback-guard violations and the ACK-withholding watchdog).
REPORT_VERSION = 2

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


def canonical_json(obj: Any) -> str:
    """Canonical compact JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def report_digest(flows: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON of the per-flow reports."""
    return hashlib.sha256(
        canonical_json({"flows": flows}).encode("utf-8")).hexdigest()


class DiagnosisConfig:
    """Thresholds for state classification and anomaly detection.

    All defaults derive from the paper's ACK-clock parameters: with
    the Eq. (3) beta-clock (``beta`` ACKs per RTT_min) a healthy flow
    hears feedback every ``rtt_min / beta`` seconds, so silence for
    ``starve_intervals`` such intervals *plus* a full RTT of transit
    slack marks the ACK clock as stalled.
    """

    __slots__ = (
        "beta",
        "starve_intervals",
        "starve_floor_s",
        "spurious_rtt_frac",
        "persist_stall_s",
        "degrade_flap_min",
        "rho_min_feedbacks",
        "rho_tolerance",
    )

    def __init__(
        self,
        beta: float = 4.0,
        starve_intervals: float = 4.0,
        starve_floor_s: float = 0.05,
        spurious_rtt_frac: float = 0.95,
        persist_stall_s: float = 1.0,
        degrade_flap_min: int = 2,
        rho_min_feedbacks: int = 30,
        rho_tolerance: float = 0.25,
    ):
        self.beta = beta
        self.starve_intervals = starve_intervals
        self.starve_floor_s = starve_floor_s
        self.spurious_rtt_frac = spurious_rtt_frac
        self.persist_stall_s = persist_stall_s
        self.degrade_flap_min = degrade_flap_min
        self.rho_min_feedbacks = rho_min_feedbacks
        self.rho_tolerance = rho_tolerance

    def starve_threshold_s(self, rtt_min_s: float) -> float:
        """Feedback silence longer than this marks ACK starvation."""
        per_interval = rtt_min_s / self.beta
        return max(rtt_min_s + self.starve_intervals * per_interval,
                   self.starve_floor_s)


class _FlowDiagnosis:
    """Per-flow reducer state: one exclusive-state timeline."""

    __slots__ = (
        "cfg", "flow_id", "t_open", "t_established", "last_t", "obs",
        "state", "state_since", "state_time", "state_bytes",
        "limit", "recovery", "starved", "degraded", "completed",
        "abort_reason", "total_bytes",
        "last_fb_t", "in_flight", "rtt_min", "srtt", "bytes_acked",
        "n_feedback", "n_acks_emitted", "n_rtos", "n_persists",
        "n_degrade_on", "n_cc_states",
        "starve_start", "starve_episodes", "rto_pending_t", "rto_armed_s",
        "spurious_rtos", "persist_stalls", "degrade_offsets",
        "fb_seen", "max_fb_seq", "rho_est",
        "guard_violations", "guard_total", "guard_escalated",
        "guard_probes", "guard_offsets",
    )

    def __init__(self, cfg: DiagnosisConfig, flow_id: int, t_open: float,
                 total_bytes: Optional[int]):
        self.cfg = cfg
        self.flow_id = flow_id
        self.t_open = t_open
        self.t_established: Optional[float] = None
        self.last_t = t_open
        self.obs = 0                       # per-flow evidence offset
        self.state = HANDSHAKE
        self.state_since = t_open
        self.state_time: Dict[str, float] = {}
        self.state_bytes: Dict[str, int] = {}
        # condition flags feeding classify()
        self.limit = CWND_LIMITED          # sender limit: cwnd default
        self.recovery = "none"
        self.starved = False
        self.degraded = False
        self.completed = False
        self.abort_reason: Optional[str] = None
        self.total_bytes = total_bytes
        # feedback bookkeeping
        self.last_fb_t: Optional[float] = None
        self.in_flight = 0
        self.rtt_min: Optional[float] = None
        self.srtt: Optional[float] = None
        self.bytes_acked = 0
        # counters
        self.n_feedback = 0
        self.n_acks_emitted = 0
        self.n_rtos = 0
        self.n_persists = 0
        self.n_degrade_on = 0
        self.n_cc_states = 0
        # anomaly raw material
        self.starve_start = 0.0
        self.starve_episodes: List[Tuple[float, float, int]] = []
        self.rto_pending_t: Optional[float] = None
        self.rto_armed_s: Optional[float] = None
        self.spurious_rtos: List[Tuple[float, int]] = []
        self.persist_stalls: List[Tuple[float, float, int]] = []
        self.degrade_offsets: List[int] = []
        self.fb_seen = 0
        self.max_fb_seq: Optional[int] = None
        self.rho_est: Optional[float] = None
        # feedback-guard evidence
        self.guard_violations: Dict[str, int] = {}
        self.guard_total = 0
        self.guard_escalated: Optional[str] = None
        self.guard_probes = 0
        self.guard_offsets: List[int] = []

    # -- timeline ----------------------------------------------------
    def _classify(self) -> str:
        if self.t_established is None:
            return HANDSHAKE
        if self.completed or self.abort_reason is not None:
            return CLOSING
        if self.recovery == "rto":
            return RTO_RECOVERY
        if self.recovery == "pull":
            return PULL_RECOVERY
        if self.limit == "rwnd":
            return RWND_LIMITED
        if self.starved:
            return ACK_STARVED
        if self.degraded:
            return DEGRADED_TACK
        if self.limit == "app":
            return APP_LIMITED
        if self.limit == "pacing":
            return PACING_LIMITED
        return CWND_LIMITED

    def _transition(self, new_state: str, t: float) -> None:
        dt = t - self.state_since
        if dt > 0.0:
            self.state_time[self.state] = (
                self.state_time.get(self.state, 0.0) + dt)
            if self.state == RWND_LIMITED and dt > self.cfg.persist_stall_s:
                self.persist_stalls.append((self.state_since, dt, self.obs))
        self.state = new_state
        self.state_since = t

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

    def end_starvation(self, t: float) -> None:
        if self.starved:
            self.starve_episodes.append((self.starve_start, t, self.obs))
            self.starved = False

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

    # -- finalization ------------------------------------------------
    def _anomalies(self, t_end: float) -> List[Dict[str, Any]]:
        found: List[Dict[str, Any]] = []
        if self.spurious_rtos:
            found.append({
                "kind": "spurious-rto",
                "count": len(self.spurious_rtos),
                "first_s": self.spurious_rtos[0][0],
                "evidence": [off for _, off in self.spurious_rtos[:8]],
            })
        if self.starve_episodes:
            durations = [end - start for start, end, _ in self.starve_episodes]
            found.append({
                "kind": "ack-starvation",
                "count": len(self.starve_episodes),
                "total_s": sum(durations),
                "max_s": max(durations),
                "first_s": self.starve_episodes[0][0],
                "evidence": [off for _, _, off in self.starve_episodes[:8]],
            })
        if self.n_degrade_on >= self.cfg.degrade_flap_min:
            found.append({
                "kind": "degrade-flap",
                "count": self.n_degrade_on,
                "evidence": self.degrade_offsets[:8],
            })
        if self.persist_stalls:
            found.append({
                "kind": "persist-stall",
                "count": len(self.persist_stalls),
                "max_s": max(dur for _, dur, _ in self.persist_stalls),
                "first_s": self.persist_stalls[0][0],
                "evidence": [off for _, _, off in self.persist_stalls[:8]],
            })
        hostile = {rule: n for rule, n in self.guard_violations.items()
                   if rule != "withheld"}
        if hostile or self.abort_reason == "misbehaving_peer":
            # Watchdog probes alone ("withheld") are not evidence of
            # hostility — legitimate blackouts probe once or twice —
            # but a misbehaving_peer abort always is, whatever fired it.
            found.append({
                "kind": "misbehaving-peer",
                "count": sum(hostile.values()),
                "rules": dict(sorted(hostile.items())),
                "escalated_rule": self.guard_escalated,
                "watchdog_probes": self.guard_probes,
                "evidence": self.guard_offsets[:8],
            })
        rho_truth = self.rho_truth()
        if (rho_truth is not None and self.rho_est is not None
                and self.fb_seen >= self.cfg.rho_min_feedbacks
                and abs(self.rho_est - rho_truth) > self.cfg.rho_tolerance):
            found.append({
                "kind": "rho-mismatch",
                "est": self.rho_est,
                "truth": rho_truth,
            })
        return found

    def rho_truth(self) -> Optional[float]:
        """Ground-truth ACK-path loss: the receiver numbered its
        feedback densely (``fb_seq``), so holes in what the sender saw
        are exactly the feedback the reverse path dropped."""
        if self.max_fb_seq is None or self.fb_seen == 0:
            return None
        return 1.0 - self.fb_seen / (self.max_fb_seq + 1)

    def finalize(self, t_end: float) -> Dict[str, Any]:
        self.end_starvation(t_end)
        self._transition(self.state, t_end)   # close the open interval
        duration = t_end - self.t_open
        # The dominant diagnosis excludes the closing tail: a host may
        # keep the simulation running long after the transfer finished
        # (chaos time limits do), and that idle wait must not shadow
        # what actually shaped the transfer.
        active = {state: secs for state, secs in self.state_time.items()
                  if state != CLOSING}
        if active:
            dominant = max(active.items(), key=lambda kv: (kv[1], kv[0]))[0]
        elif self.state_time:
            dominant = CLOSING
        else:
            dominant = self.state
        if self.abort_reason is not None:
            outcome = "aborted"
        elif self.completed:
            outcome = "completed"
        else:
            outcome = "open"
        # Goodput over the *active* lifetime: the closing tail (after
        # completion/abort, before the close event) is by definition
        # post-transfer and would dilute the rate with idle time.
        active_s = duration - self.state_time.get(CLOSING, 0.0)
        goodput = self.bytes_acked * 8.0 / active_s if active_s > 0 else 0.0
        return {
            "open_s": self.t_open,
            "established_s": self.t_established,
            "close_s": t_end,
            "duration_s": duration,
            "active_s": active_s,
            "outcome": outcome,
            "abort_reason": self.abort_reason,
            "total_bytes": self.total_bytes,
            "bytes_acked": self.bytes_acked,
            "goodput_bps": goodput,
            "dominant": dominant,
            "state_time_s": dict(sorted(self.state_time.items())),
            "state_bytes": dict(sorted(self.state_bytes.items())),
            "anomalies": self._anomalies(t_end),
            "rho": {
                "est": self.rho_est,
                "truth": self.rho_truth(),
                "fb_seen": self.fb_seen,
                "max_fb_seq": self.max_fb_seq,
            },
            "guard": {
                "violations": dict(sorted(self.guard_violations.items())),
                "total": self.guard_total,
                "escalated_rule": self.guard_escalated,
                "watchdog_probes": self.guard_probes,
            },
            "counters": {
                "events": self.obs,
                "feedbacks": self.n_feedback,
                "acks_emitted": self.n_acks_emitted,
                "rtos": self.n_rtos,
                "persist_probes": self.n_persists,
                "degrades": self.n_degrade_on,
                "cc_states": self.n_cc_states,
            },
        }


class DiagnosisEngine:
    """Stream reducer over the diagnosis event vocabulary.

    Feed it every diagnosis-relevant observation via :meth:`observe`
    (times must be non-decreasing, as simulator clocks and traces
    are); collect per-flow reports via :meth:`report`, or pop flows
    incrementally with :meth:`pop_flow` to keep memory flat at fleet
    scale.
    """

    def __init__(self, config: Optional[DiagnosisConfig] = None):
        self.config = config if config is not None else DiagnosisConfig()
        self._flows: Dict[int, _FlowDiagnosis] = {}
        self._done: Dict[int, Dict[str, Any]] = {}

    # -- ingestion ---------------------------------------------------
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

    # -- extraction --------------------------------------------------
    def finalize(self, end_s: Optional[float] = None) -> None:
        """Close every still-open flow.  Without an explicit end time
        each flow ends at its own last observation — a stream-derived
        value, identical live and offline."""
        for flow_id in sorted(self._flows):
            flow = self._flows.pop(flow_id)
            self._done[flow_id] = flow.finalize(
                end_s if end_s is not None else flow.last_t)

    def pop_flow(self, flow_id: int,
                 end_s: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Finalize (if needed) and remove one flow's report."""
        flow = self._flows.pop(flow_id, None)
        if flow is not None:
            self._done[flow_id] = flow.finalize(
                end_s if end_s is not None else flow.last_t)
        return self._done.pop(flow_id, None)

    def flows(self) -> Dict[str, Dict[str, Any]]:
        """Finalized per-flow reports, keyed by stringified flow id."""
        return {str(fid): rep for fid, rep in sorted(self._done.items())}

    def report(self) -> Dict[str, Any]:
        """The full diagnosis report with its canonical digest.

        Raises ``RuntimeError`` while any flow is still open: its
        report would silently lack that flow (call :meth:`finalize`)."""
        if self._flows:
            raise RuntimeError(
                f"report() before finalize(): flows {sorted(self._flows)} "
                "are still open")
        flows = self.flows()
        return {
            "schema": REPORT_SCHEMA,
            "version": REPORT_VERSION,
            "flows": flows,
            "digest": report_digest(flows),
        }
