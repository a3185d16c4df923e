"""Flow doctor: send-limit state machine, anomaly detection, run-diff
explanation, and the live == offline identity contract.

The engine is a pure stream reducer, so the synthetic tests drive it
directly with hand-built event streams; the identity tests run real
chaos scenarios with both planes attached and compare digests.
"""

import json
import math

import pytest
from doctor_ladder_oracle import LadderEngine
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultSchedule, Scenario, get_scenario, run_scenario
from repro.core.flavors import make_connection
from repro.diagnose import (
    ALL_STATES,
    DiagnosisConfig,
    DiagnosisEngine,
    FlowDoctor,
    diagnose_trace,
    explain_reports,
)
from repro.diagnose.cli import main as diagnose_main
from repro.diagnose.engine import (
    ANY_NAME,
    VOCABULARY,
    _FlowDiagnosis,
    canonical_json,
)
from repro.diagnose.offline import diagnose_events
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path
from repro.telemetry import JsonlSink, TraceCollector, TraceEvent

MSS = 1448


def drive(engine, events):
    """Feed (t, cat, name, fields) tuples for flow 0."""
    for t, cat, name, fields in events:
        engine.fold(t, cat, name, 0, fields)


def basic_lifetime(extra=(), close_t=10.0):
    """open -> established -> a little traffic -> close."""
    return [
        (0.0, "transport", "open", {"total_bytes": 100 * MSS}),
        (0.1, "transport", "established", {"rtt_s": 0.1}),
        (0.2, "transport", "limited", {"limit": "pacing"}),
        *extra,
        (close_t, "transport", "close", {"cum_acked": 100 * MSS}),
    ]


class TestStateMachine:
    def test_states_partition_lifetime_exactly(self):
        engine = DiagnosisEngine()
        drive(engine, basic_lifetime(extra=[
            (1.0, "transport", "limited", {"limit": "app"}),
            (4.0, "transport", "rto", {"rto_s": 0.4, "in_flight": MSS}),
            (6.0, "transport", "recovery", {"mode": "none"}),
        ]))
        flow = engine.flows()["0"]
        assert flow["duration_s"] == pytest.approx(10.0)
        assert math.fsum(flow["state_time_s"].values()) == pytest.approx(
            flow["duration_s"])
        for state in flow["state_time_s"]:
            assert state in ALL_STATES

    def test_handshake_then_pacing_then_close(self):
        engine = DiagnosisEngine()
        drive(engine, basic_lifetime())
        flow = engine.flows()["0"]
        times = flow["state_time_s"]
        assert times["handshake"] == pytest.approx(0.1)
        # cwnd-limited default between established and the limited event
        assert times["cwnd-limited"] == pytest.approx(0.1)
        assert times["pacing-limited"] == pytest.approx(9.8)
        assert flow["dominant"] == "pacing-limited"

    def test_rto_recovery_shadows_pull(self):
        engine = DiagnosisEngine()
        drive(engine, basic_lifetime(extra=[
            (1.0, "transport", "recovery", {"mode": "pull"}),
            (2.0, "transport", "rto", {"rto_s": 0.4, "in_flight": MSS}),
            (2.0, "transport", "recovery", {"mode": "rto"}),
            (5.0, "transport", "recovery", {"mode": "none"}),
        ]))
        times = engine.flows()["0"]["state_time_s"]
        assert times["pull-recovery"] == pytest.approx(1.0)
        assert times["rto-recovery"] == pytest.approx(3.0)

    def test_dominant_excludes_closing_tail(self):
        engine = DiagnosisEngine()
        drive(engine, basic_lifetime(extra=[
            (0.5, "transport", "complete", {"total_bytes": 100 * MSS}),
        ], close_t=120.0))
        flow = engine.flows()["0"]
        assert flow["state_time_s"]["closing"] > 100.0
        assert flow["dominant"] == "pacing-limited"
        assert flow["outcome"] == "completed"

    def test_rwnd_limited_and_persist_stall_anomaly(self):
        engine = DiagnosisEngine(DiagnosisConfig(persist_stall_s=1.0))
        drive(engine, basic_lifetime(extra=[
            (1.0, "transport", "limited", {"limit": "rwnd"}),
            (1.5, "transport", "persist", {"attempts": 1}),
            (4.0, "transport", "limited", {"limit": "cwnd"}),
        ]))
        flow = engine.flows()["0"]
        assert flow["state_time_s"]["rwnd-limited"] == pytest.approx(3.0)
        kinds = [a["kind"] for a in flow["anomalies"]]
        assert "persist-stall" in kinds

    def test_abort_outcome(self):
        engine = DiagnosisEngine()
        drive(engine, [
            (0.0, "transport", "open", {"total_bytes": 10 * MSS}),
            (0.1, "transport", "established", {"rtt_s": 0.1}),
            (3.0, "transport", "abort",
             {"reason": "rto_exhausted", "attempts": 7}),
            (3.0, "transport", "close", {"cum_acked": 0}),
        ])
        flow = engine.flows()["0"]
        assert flow["outcome"] == "aborted"
        assert flow["abort_reason"] == "rto_exhausted"

    def test_unknown_event_names_do_not_change_the_report(self):
        """The vocabulary gate: sampled/high-rate trace events (send,
        recv, cc/update...) must not perturb evidence offsets, so a
        sampled trace and the live plane agree."""
        events = basic_lifetime()
        noisy = list(events)
        noisy.insert(3, (0.3, "transport", "send", {"nbytes": MSS}))
        noisy.insert(3, (0.3, "cc", "update", {"cwnd": 10}))
        noisy.insert(3, (0.3, "netsim", "deliver", {"nbytes": MSS}))
        a, b = DiagnosisEngine(), DiagnosisEngine()
        drive(a, events)
        drive(b, noisy)
        assert a.report()["digest"] == b.report()["digest"]

    def test_report_before_finalize_raises_naming_open_flows(self):
        engine = DiagnosisEngine()
        drive(engine, basic_lifetime()[:-1])      # no close event
        with pytest.raises(RuntimeError, match=r"flows \[0\]"):
            engine.report()
        engine.finalize()
        assert list(engine.report()["flows"]) == ["0"]


class TestAnomalies:
    def test_ack_starvation_episode_split(self):
        cfg = DiagnosisConfig()
        rtt = 0.1
        threshold = cfg.starve_threshold_s(rtt)
        events = basic_lifetime(extra=[
            (0.3, "transport", "feedback",
             {"kind": "tack", "cum_ack": MSS, "acked_bytes": MSS,
              "lost_bytes": 0, "in_flight": 4 * MSS, "awnd": 1 << 20,
              "fb_seq": 0, "rho_est": 0.0}),
            # silence until 5.0 — far beyond the starvation threshold;
            # in_flight drains to 0 so no further episode can open
            (5.0, "transport", "feedback",
             {"kind": "tack", "cum_ack": 2 * MSS, "acked_bytes": MSS,
              "lost_bytes": 0, "in_flight": 0, "awnd": 1 << 20,
              "fb_seq": 1, "rho_est": 0.0}),
        ])
        engine = DiagnosisEngine(cfg)
        drive(engine, events)
        flow = engine.flows()["0"]
        starved = [a for a in flow["anomalies"]
                   if a["kind"] == "ack-starvation"]
        assert starved and starved[0]["count"] == 1
        assert flow["state_time_s"]["ack-starved"] == pytest.approx(
            5.0 - (0.3 + threshold))

    def test_spurious_rto_fast_feedback_rule(self):
        engine = DiagnosisEngine()
        drive(engine, basic_lifetime(extra=[
            (2.0, "transport", "rto", {"rto_s": 0.4, "in_flight": 4 * MSS}),
            # progress only 10 ms after the timeout << rtt_min
            (2.01, "transport", "feedback",
             {"kind": "tack", "cum_ack": MSS, "acked_bytes": MSS,
              "lost_bytes": 0, "in_flight": 0, "awnd": 1 << 20,
              "fb_seq": 0, "rho_est": 0.0}),
        ]))
        kinds = [a["kind"] for a in engine.flows()["0"]["anomalies"]]
        assert "spurious-rto" in kinds

    def test_spurious_rto_rtt_overshoot_rule(self):
        """Eifel-lite: a valid RTT sample larger than the timer that
        fired proves the flight was delayed, not lost."""
        engine = DiagnosisEngine()
        drive(engine, basic_lifetime(extra=[
            (2.0, "transport", "rto", {"rto_s": 0.4, "in_flight": 4 * MSS}),
            (2.6, "timing", "rtt_sample",
             {"rtt_s": 0.55, "srtt_s": 0.2, "rtt_min_s": 0.1}),
        ]))
        kinds = [a["kind"] for a in engine.flows()["0"]["anomalies"]]
        assert "spurious-rto" in kinds

    def test_genuine_rto_not_flagged(self):
        engine = DiagnosisEngine()
        drive(engine, basic_lifetime(extra=[
            (2.0, "transport", "rto", {"rto_s": 0.4, "in_flight": 4 * MSS}),
            # recovery completes a full RTT later with normal samples
            (2.5, "timing", "rtt_sample",
             {"rtt_s": 0.1, "srtt_s": 0.1, "rtt_min_s": 0.1}),
            (2.5, "transport", "feedback",
             {"kind": "tack", "cum_ack": MSS, "acked_bytes": MSS,
              "lost_bytes": 0, "in_flight": 0, "awnd": 1 << 20,
              "fb_seq": 0, "rho_est": 0.0}),
        ]))
        kinds = [a["kind"] for a in engine.flows()["0"]["anomalies"]]
        assert "spurious-rto" not in kinds

    def test_rho_mismatch_between_estimate_and_fb_seq_truth(self):
        cfg = DiagnosisConfig(rho_min_feedbacks=10)
        extra = []
        # 10 feedbacks received out of fb_seq 0..19 -> truth 0.5,
        # while the sender's estimate stays 0.
        for i in range(10):
            extra.append((0.3 + 0.1 * i, "transport", "feedback",
                          {"kind": "tack", "cum_ack": (i + 1) * MSS,
                           "acked_bytes": MSS, "lost_bytes": 0,
                           "in_flight": MSS, "awnd": 1 << 20,
                           "fb_seq": 2 * i + 1, "rho_est": 0.0}))
        engine = DiagnosisEngine(cfg)
        drive(engine, basic_lifetime(extra=extra))
        flow = engine.flows()["0"]
        assert flow["rho"]["truth"] == pytest.approx(0.5)
        kinds = [a["kind"] for a in flow["anomalies"]]
        assert "rho-mismatch" in kinds


class TestByteAttribution:
    def test_bytes_attributed_to_state_in_force(self):
        engine = DiagnosisEngine()
        drive(engine, basic_lifetime(extra=[
            (1.0, "transport", "feedback",
             {"kind": "tack", "cum_ack": 10 * MSS, "acked_bytes": 10 * MSS,
              "lost_bytes": 0, "in_flight": MSS, "awnd": 1 << 20,
              "fb_seq": 0, "rho_est": 0.0}),
        ]))
        flow = engine.flows()["0"]
        assert flow["state_bytes"]["pacing-limited"] == 10 * MSS
        assert flow["bytes_acked"] == 10 * MSS

    def test_goodput_over_active_lifetime(self):
        engine = DiagnosisEngine()
        drive(engine, basic_lifetime(extra=[
            (1.0, "transport", "feedback",
             {"kind": "tack", "cum_ack": 100 * MSS,
              "acked_bytes": 100 * MSS, "lost_bytes": 0, "in_flight": 0,
              "awnd": 1 << 20, "fb_seq": 0, "rho_est": 0.0}),
            (1.0, "transport", "complete", {"total_bytes": 100 * MSS}),
        ], close_t=100.0))
        flow = engine.flows()["0"]
        # 99 s of closing tail must not dilute the rate
        assert flow["active_s"] == pytest.approx(1.0)
        assert flow["goodput_bps"] == pytest.approx(100 * MSS * 8.0 / 1.0)


def run_traced_scenario(tmp_path, scheme, name="blackout"):
    path = tmp_path / "t.jsonl"
    collector = TraceCollector(JsonlSink(str(path)))
    result = run_scenario(get_scenario(name), scheme=scheme, seed=1,
                          simsan=True, telemetry=collector)
    collector.close()
    return result, path


class TestLiveOfflineIdentity:
    """Satellite: the live doctor and the offline trace replay must
    produce byte-identical reports across every scheme."""

    @pytest.mark.parametrize(
        "scheme", ("tcp-tack", "tcp-bbr-perpacket", "tcp-bbr", "tcp-cubic"))
    def test_jsonl_replay_matches_live(self, tmp_path, scheme):
        result, path = run_traced_scenario(tmp_path, scheme)
        offline = diagnose_trace(str(path))
        assert offline["digest"] == result.diagnosis["digest"]
        assert offline["flows"] == result.diagnosis["flows"]


    @pytest.mark.parametrize("scheme", ("tcp-tack", "tcp-bbr"))
    @pytest.mark.parametrize("scenario", (
        "blackout", "ack-path-loss", "route-change", "adv-optimistic-acker"))
    def test_golden_chaos_cells_replay_to_the_live_digest(
            self, scenario, scheme):
        """Eight ``chaos/...`` cells of ``tests/golden/lock.json``, live
        (bus -> ``fold``) against offline (trace -> ``fold``)."""
        collector = TraceCollector()
        live = run_scenario(get_scenario(scenario), scheme, seed=1,
                            telemetry=collector).diagnosis
        offline = diagnose_events(collector.events())
        assert offline["digest"] == live["digest"]
        assert offline["flows"] == live["flows"]


# -- the ladder as oracle ------------------------------------------------
IN_VOCABULARY = [(category, name) for category, names in VOCABULARY.items()
                 for name in names]
OUT_OF_VOCABULARY = [
    ("transport", "send"), ("transport", "retx"), ("transport", ANY_NAME),
    ("timing", "rttmin_sync"), ("cc", "update"), ("guard", "admit"),
    ("ack", "nack"), ("netsim", "deliver"), ("chaos", "fault_on"),
    ("", ""), ("doctor", "open"),
]
FIELD_KEYS = (
    "total_bytes", "rtt_s", "limit", "mode", "rto_s", "in_flight",
    "acked_bytes", "fb_seq", "rho_est", "reason", "rtt_min_s", "srtt_s",
    "on", "rule", "count", "probes", "total", "frames", "bad_cum_ack",
    "withheld")
FIELD_VALUES = st.one_of(
    st.integers(-3, 5), st.integers(0, 1 << 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(1e-4, 2.0),
    st.sampled_from(("cwnd", "pacing", "rwnd", "app", "rto", "pull", "none",
                     "misbehaving_peer", "withheld", "bad_cum_ack", "")),
    st.booleans(), st.none(), st.lists(st.integers(0, 3), max_size=2))
EVENTS = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 3.0)),
        st.one_of(st.sampled_from(IN_VOCABULARY),
                  st.sampled_from(IN_VOCABULARY + OUT_OF_VOCABULARY)),
        st.integers(0, 2),
        st.dictionaries(st.sampled_from(FIELD_KEYS), FIELD_VALUES,
                        max_size=6)),
    max_size=60)


class TestLadderOracle:
    """``fold`` dispatches through one table and re-derives the class
    only after the handlers marked as able to change it; the ladder it
    replaced (``tests/doctor_ladder_oracle.py``, HEAD verbatim) did
    neither.  Same stream, same report, whatever the stream."""

    @staticmethod
    def both(stream):
        """``(table report, ladder report)`` as canonical JSON (NaN
        fields make the dicts themselves unequal to their own copy)."""
        table, ladder = DiagnosisEngine(), LadderEngine()
        t = 0.0
        for dt, (category, name), flow_id, fields in stream:
            t += dt
            table.fold(t, category, name, flow_id, dict(fields))
            ladder.observe(TraceEvent(t, category, name, flow_id,
                                      dict(fields)))
        table.finalize()
        ladder.finalize()
        return (canonical_json(table.report()),
                canonical_json(ladder.report()))

    @given(EVENTS)
    @settings(max_examples=400, deadline=None)
    def test_any_stream_gives_the_ladders_report(self, stream):
        table, ladder = self.both(stream)
        assert table == ladder

    def test_lifecycle_corners_the_property_must_reach(self):
        """Before open, a second open, after close, re-open of a closed
        flow, every guard name and an unlisted ``ack`` kind — spelled
        out so the corners do not depend on the search finding them."""
        guard = {"rule": "bad_cum_ack", "count": 3, "probes": 2, "total": 9,
                 "frames": 50, "withheld": 1}
        stream = [(0.1, ("transport", "feedback"), 0, {"acked_bytes": MSS}),
                  (0.1, ("transport", "open"), 1, {}),
                  # found by the property: rho_truth divided by zero
                  (0.1, ("transport", "feedback"), 1, {"fb_seq": -1})]
        stream += [(0.1, pair, 0, {"total_bytes": 7, "rtt_s": 0.05,
                                   "limit": "rwnd", "in_flight": MSS, **guard})
                   for pair in (("transport", "open"), ("transport", "open"),
                                ("transport", "established"),
                                *(("guard", name)
                                  for name in VOCABULARY["guard"]),
                                ("ack", "nack"), ("ack", "degrade"),
                                ("transport", "limited"),
                                ("transport", "close"),
                                ("transport", "feedback"),
                                ("transport", "open"))]
        table, ladder = self.both(stream)
        assert table == ladder
        flow = json.loads(table)["flows"]["0"]
        assert flow["counters"]["events"] == 9      # established..close
        assert flow["counters"]["acks_emitted"] == 1
        assert flow["guard"]["escalated_rule"] == "bad_cum_ack"
        assert flow["guard"]["watchdog_probes"] == 2


class TestFoldCost:
    """Counts, not timings: what one observation may cost."""

    def count_classify(self, monkeypatch):
        calls = []
        classify = _FlowDiagnosis._classify
        monkeypatch.setattr(
            _FlowDiagnosis, "_classify",
            lambda flow: calls.append(flow.obs) or classify(flow))
        return calls

    def test_classify_at_most_once_per_event_never_after_rtt_or_ack(
            self, monkeypatch):
        calls = self.count_classify(monkeypatch)
        seen = []
        doctor = FlowDoctor()
        sim = Simulator(seed=3, simsan=False, diagnosis=doctor)
        sim.probes.subscribe(
            lambda t, category, name, flow_id, fields: seen.append(
                ((category, name), len(calls))))
        path = wired_path(sim, rate_bps=20e6, rtt_s=0.04, data_loss=0.02)
        conn = make_connection(sim, "tcp-bbr", initial_rtt_s=0.04)
        conn.wire(path.forward, path.reverse)
        conn.start_transfer(400_000)
        sim.run(until=20.0)
        conn.close()
        assert conn.completed
        # The doctor folds before this subscriber sees the event, so the
        # difference between consecutive marks is that event's calls.
        per_event = [(pair, after - before) for (pair, after), (_, before)
                     in zip(seen[1:], seen)]
        assert {pair for pair, _ in per_event} >= {
            ("timing", "rtt_sample"), ("ack", "ack"),
            ("transport", "feedback"), ("transport", "limited")}
        assert max(n for _, n in per_event) == 1
        assert not [pair for pair, n in per_event if n and pair[0] in
                    ("timing", "ack", "cc", "guard") and pair[1] != "degrade"]
        assert sum(n for _, n in per_event) < len(per_event) / 2


class TestExplain:
    def make_reports(self):
        fast = DiagnosisEngine()
        drive(fast, basic_lifetime(extra=[
            (1.0, "transport", "feedback",
             {"kind": "tack", "cum_ack": 100 * MSS,
              "acked_bytes": 100 * MSS, "lost_bytes": 0, "in_flight": 0,
              "awnd": 1 << 20, "fb_seq": 0, "rho_est": 0.0}),
            (1.0, "transport", "complete", {"total_bytes": 100 * MSS}),
        ], close_t=1.5))
        slow = DiagnosisEngine()
        drive(slow, basic_lifetime(extra=[
            (1.0, "transport", "rto", {"rto_s": 0.4, "in_flight": 4 * MSS}),
            (1.0, "transport", "recovery", {"mode": "rto"}),
            (4.0, "transport", "recovery", {"mode": "none"}),
            (5.0, "transport", "feedback",
             {"kind": "tack", "cum_ack": 100 * MSS,
              "acked_bytes": 100 * MSS, "lost_bytes": 0, "in_flight": 0,
              "awnd": 1 << 20, "fb_seq": 0, "rho_est": 0.0}),
            (5.0, "transport", "complete", {"total_bytes": 100 * MSS}),
        ], close_t=5.5))
        return fast.report(), slow.report()

    def test_attribution_names_recovery_time(self):
        fast, slow = self.make_reports()
        explanation = explain_reports(fast, slow, "fast", "slow")
        assert explanation["goodput_delta_frac"] < -0.5
        top = explanation["attribution"][0]
        assert top["state"] == "rto-recovery"
        assert top["delta_s"] == pytest.approx(3.0)
        assert "slow lost" in explanation["headline"]
        assert "rto-recovery" in explanation["headline"]

    def test_identical_reports_match(self):
        fast, _ = self.make_reports()
        explanation = explain_reports(fast, fast)
        assert explanation["goodput_delta_frac"] == pytest.approx(0.0)
        assert explanation["attribution"] == []
        assert "matches" in explanation["headline"]

    def test_ack_path_loss_attributed_to_a_send_limit_state(self):
        """A clean run against fig. 5(b)'s ``ack-path-loss`` profile on
        the same topology: the impaired run loses goodput, and the
        explanation pins the loss on a send-limit state delta."""
        impaired = get_scenario("ack-path-loss")
        clean = Scenario(
            "fig09-clean", "ack-path-loss topology with no faults armed",
            lambda: FaultSchedule([]), rate_bps=impaired.rate_bps,
            rtt_s=impaired.rtt_s, transfer_bytes=impaired.transfer_bytes,
            time_limit_s=impaired.time_limit_s)
        explanation = explain_reports(
            run_scenario(clean, "tcp-tack", seed=7).diagnosis,
            run_scenario(impaired, "tcp-tack", seed=7).diagnosis,
            label_a="clean", label_b="impaired")
        assert explanation["goodput_delta_frac"] < 0
        assert explanation["attribution"]
        top = explanation["attribution"][0]
        assert top["state"] != "closing" and top["delta_s"] > 0
        assert "impaired" in explanation["headline"]


class TestCli:
    def test_report_and_check_and_explain(self, tmp_path, capsys):
        _, clean = run_traced_scenario(tmp_path, "tcp-tack",
                                       name="jitter-reorder")
        _, impaired = run_traced_scenario(tmp_path, "tcp-cubic",
                                          name="blackout")
        assert diagnose_main(["report", str(clean)]) == 0
        capsys.readouterr()
        assert diagnose_main(["report", str(clean), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-diagnosis"
        assert "0" in doc["flows"]

        # check: matching expectation -> 0, wrong expectation -> 1
        assert diagnose_main(
            ["check", str(impaired), "--expect", "rto-recovery"]) == 0
        capsys.readouterr()
        assert diagnose_main(
            ["check", str(impaired), "--expect", "handshake"]) == 1
        capsys.readouterr()

        out = tmp_path / "explain.json"
        assert diagnose_main(["explain", str(clean), str(impaired),
                              "--save", str(out)]) == 0
        saved = json.loads(out.read_text())
        assert "headline" in saved and "attribution" in saved

    def test_missing_trace_is_usage_error(self, tmp_path, capsys):
        assert diagnose_main(["report", "/nonexistent/trace.jsonl"]) == 2
        assert "error" in capsys.readouterr().err
        # unreadable input of any kind is the same one-line error:
        # non-UTF-8 junk, the removed binary format's magic, an empty
        # file, a file without the schema header
        bad = tmp_path / "bad.jsonl"
        for raw in (b"\x00\xff\x80garbage" * 16,
                    b"\x93RTB\r\n\x1a\n\x01\x00" + bytes(32),
                    b"", b'{"t": 0.0}\n'):
            bad.write_bytes(raw)
            assert diagnose_main(["report", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
