"""The diagnosis reducer: observations in, per-flow reports out.

:class:`DiagnosisEngine` is a *pure stream reducer*: it consumes
observations ``(t, category, name, flow_id, fields)`` — the diagnosis
event vocabulary (:data:`VOCABULARY`), a strict subset of the
schema-v1 telemetry taxonomy — and folds them into per-flow state
timelines, byte-weighted attribution, and anomaly findings.  It never
reads a clock, never draws randomness, and never looks at a file: both
the live plane
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
import math
from dataclasses import dataclass
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
    "ANY_NAME",
    "DiagnosisConfig",
    "DiagnosisEngine",
    "VOCABULARY",
    "canonical_json",
    "report_digest",
]

#: Report schema stamp (independent of the telemetry schema version).
REPORT_SCHEMA = "repro-diagnosis"
#: v2: per-flow ``guard`` block + the ``misbehaving-peer`` anomaly
#: (feedback-guard violations and the ACK-withholding watchdog).
REPORT_VERSION = 2


def canonical_json(obj: Any) -> str:
    """Canonical compact JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def report_digest(flows: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON of the per-flow reports."""
    return hashlib.sha256(
        canonical_json({"flows": flows}).encode("utf-8")).hexdigest()


@dataclass
class DiagnosisConfig:
    """Thresholds for state classification and anomaly detection.

    All defaults derive from the paper's ACK-clock parameters: with
    the Eq. (3) beta-clock (``beta`` ACKs per RTT_min) a healthy flow
    hears feedback every ``rtt_min / beta`` seconds, so silence for
    ``starve_intervals`` such intervals *plus* a full RTT of transit
    slack marks the ACK clock as stalled.
    """

    beta: float = 4.0
    starve_intervals: float = 4.0
    starve_floor_s: float = 0.05
    spurious_rtt_frac: float = 0.95
    persist_stall_s: float = 1.0
    degrade_flap_min: int = 2
    rho_min_feedbacks: int = 30
    rho_tolerance: float = 0.25

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
        "last_fb_t", "in_flight", "rtt_min", "starve_after_s",
        "bytes_acked",
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
        self.starve_after_s = math.inf     # cfg.starve_threshold_s(rtt_min)
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

    def check_starvation(self, t: float) -> None:
        """Retroactive ACK-starvation entry.  ``fold`` has found, as on
        every observation, an unstarved flow whose feedback silence
        exceeds ``starve_after_s``: the starved interval began at that
        boundary, not at this (later) observation."""
        if (self.t_established is None or self.completed
                or self.abort_reason is not None
                or self.recovery != "none" or self.limit == "rwnd"
                or self.in_flight <= 0):
            return
        boundary = self.last_fb_t + self.starve_after_s
        if boundary < self.state_since:
            boundary = self.state_since
        self.starved = True
        self.starve_start = boundary
        self._transition(ACK_STARVED, boundary)

    def end_starvation(self, t: float) -> None:
        if self.starved:
            self.starve_episodes.append((self.starve_start, t, self.obs))
            self.starved = False

    # -- event handlers: one per VOCABULARY entry, all (t, fields) ----
    def _set_rtt_min(self, rtt_min: float) -> None:
        self.rtt_min = rtt_min
        self.starve_after_s = self.cfg.starve_threshold_s(rtt_min)

    def on_established(self, t: float, fields: Dict[str, Any]) -> None:
        self.t_established = t
        rtt0 = fields.get("rtt_s")
        if isinstance(rtt0, (int, float)) and rtt0 > 0:
            self._set_rtt_min(float(rtt0))
        # The handshake round trip counts as feedback: the starvation
        # window opens at establishment, not at the first data ACK.
        self.last_fb_t = t

    def on_limited(self, t: float, fields: Dict[str, Any]) -> None:
        limit = fields.get("limit")
        if isinstance(limit, str):
            self.limit = limit

    def on_recovery(self, t: float, fields: Dict[str, Any]) -> None:
        mode = fields.get("mode", "none")
        if mode != "none":
            self.end_starvation(t)
        self.recovery = mode if isinstance(mode, str) else "none"

    def on_persist(self, t: float, fields: Dict[str, Any]) -> None:
        self.n_persists += 1

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
        if self.starved:
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

    def on_complete(self, t: float, fields: Dict[str, Any]) -> None:
        self.completed = True

    def on_abort(self, t: float, fields: Dict[str, Any]) -> None:
        reason = fields.get("reason")
        self.abort_reason = reason if isinstance(reason, str) else "unknown"

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
        if (rtt_min != self.rtt_min and isinstance(rtt_min, (int, float))
                and rtt_min > 0):
            self._set_rtt_min(float(rtt_min))

    def on_ack_emitted(self, t: float, fields: Dict[str, Any]) -> None:
        self.n_acks_emitted += 1

    def on_degrade(self, t: float, fields: Dict[str, Any]) -> None:
        on = bool(fields.get("on"))
        self.degraded = on
        if on:
            self.n_degrade_on += 1
            self.degrade_offsets.append(self.obs)

    def on_cc_state(self, t: float, fields: Dict[str, Any]) -> None:
        self.n_cc_states += 1

    # Feedback-guard evidence.  ``violation`` traces are rate-limited
    # at the source, so the per-rule counts are running maxima
    # refreshed by the ``summary`` event's authoritative totals at
    # close.
    def _guard_evidence(self, offset: bool) -> None:
        """Every guard handler's tail: first eight offsets, total."""
        if offset and len(self.guard_offsets) < 8:
            self.guard_offsets.append(self.obs)
        total = sum(self.guard_violations.values())
        if total > self.guard_total:
            self.guard_total = total

    def on_guard_violation(self, t: float, fields: Dict[str, Any]) -> None:
        rule = fields.get("rule")
        count = fields.get("count")
        known = isinstance(rule, str) and isinstance(count, int)
        if known and count > self.guard_violations.get(rule, 0):
            self.guard_violations[rule] = count
        self._guard_evidence(offset=known)

    def on_guard_probe(self, t: float, fields: Dict[str, Any]) -> None:
        probes = fields.get("probes")
        if isinstance(probes, int) and probes > self.guard_probes:
            self.guard_probes = probes
        self._guard_evidence(offset=True)

    def on_guard_escalated(self, t: float, fields: Dict[str, Any]) -> None:
        rule = fields.get("rule")
        if isinstance(rule, str):
            self.guard_escalated = rule
        self._guard_evidence(offset=False)

    def on_guard_summary(self, t: float, fields: Dict[str, Any]) -> None:
        for key, val in fields.items():
            if not isinstance(val, int):
                continue
            if key == "total":
                self.guard_total = max(self.guard_total, val)
            elif key != "frames":
                if val > self.guard_violations.get(key, 0):
                    self.guard_violations[key] = val
        self._guard_evidence(offset=False)

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
        feedback densely (``fb_seq`` >= 0), so holes in what the sender
        saw are exactly the feedback the reverse path dropped."""
        if self.max_fb_seq is None or self.max_fb_seq < 0:
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


#: Name under which a category takes every event not listed by name.
ANY_NAME = "*"

#: The engine's own two entries: ``open`` creates the flow's reducer
#: (and is not counted as an observation), ``close`` retires it.
_OPEN, _CLOSE = object(), object()

#: The diagnosis event vocabulary, ``{category: {name: (handler,
#: reclassify)}}``: exactly the events sites emit through the probe
#: bus.  Offline replay feeds *whole traces* through the engine, so
#: anything outside the table (sampled per-packet sites, cc/update,
#: rttmin_sync, netsim/chaos categories) is dropped before the per-flow
#: evidence-offset counter, or live and offline offsets would disagree.
#: ``reclassify`` is False for a handler that touches no input of
#: ``_classify()`` (two events in three); simsan's ``doctor_state``
#: re-derives the class after every fold, so a wrong False fails there.
VOCABULARY: Dict[str, Dict[str, Any]] = {
    "transport": {
        "open": _OPEN,
        "established": (_FlowDiagnosis.on_established, True),
        "limited": (_FlowDiagnosis.on_limited, True),
        "recovery": (_FlowDiagnosis.on_recovery, True),
        "persist": (_FlowDiagnosis.on_persist, False),
        "rto": (_FlowDiagnosis.on_rto, True),
        "feedback": (_FlowDiagnosis.on_feedback, True),
        "complete": (_FlowDiagnosis.on_complete, True),
        "abort": (_FlowDiagnosis.on_abort, True),
        "close": _CLOSE,
    },
    # All-vocabulary: one event per ACK emitted, named by packet kind.
    "ack": {
        "degrade": (_FlowDiagnosis.on_degrade, True),
        ANY_NAME: (_FlowDiagnosis.on_ack_emitted, False),
    },
    "timing": {"rtt_sample": (_FlowDiagnosis.on_rtt, False)},
    "cc": {"state": (_FlowDiagnosis.on_cc_state, False)},
    # The validator rate-limits ``violation`` traces itself, identically
    # live and in the recorded trace, so offsets agree across planes.
    "guard": {
        "violation": (_FlowDiagnosis.on_guard_violation, False),
        "watchdog_probe": (_FlowDiagnosis.on_guard_probe, False),
        "escalated": (_FlowDiagnosis.on_guard_escalated, False),
        "summary": (_FlowDiagnosis.on_guard_summary, False),
    },
}


class DiagnosisEngine:
    """Stream reducer over the diagnosis event vocabulary.

    Feed it every diagnosis-relevant observation via :meth:`fold`
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
    def fold(self, t_s: float, category: str, name: str, flow_id: int,
             fields: Dict[str, Any]) -> None:
        """Fold one observation — the single ingestion step, called by
        the live doctor's bus subscription and the offline replay."""
        names = VOCABULARY.get(category)
        if names is None:
            return
        entry = names.get(name) or names.get(ANY_NAME)
        if entry is None:
            return
        if entry is _OPEN:
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
        last_fb_t = flow.last_fb_t
        if (last_fb_t is not None and not flow.starved
                and t_s - last_fb_t > flow.starve_after_s):
            flow.check_starvation(t_s)
        if entry is _CLOSE:
            self._done[flow_id] = flow.finalize(t_s)
            del self._flows[flow_id]
            return
        handler, reclassify = entry
        handler(flow, t_s, fields)
        if reclassify:
            desired = flow._classify()
            if desired != flow.state:
                flow._transition(desired, t_s)

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
